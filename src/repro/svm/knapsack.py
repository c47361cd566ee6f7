"""Exact continuous quadratic-knapsack solver.

The Reducer step of the vertically partitioned scheme (paper eq. (29))
must solve a QP whose Hessian is **diagonal**, subject to a box and a
single linear equality constraint:

    minimize    sum_i (a_i/2) x_i^2 + d_i x_i
    subject to  sum_i c_i x_i = r,     lo_i <= x_i <= hi_i.

This is the classic continuous quadratic knapsack problem.  The KKT
conditions give, for a scalar multiplier ``nu`` and ``q = -d/a``,

    x_i(nu) = clip(q_i - nu * c_i / a_i, lo_i, hi_i),

and ``phi(nu) = sum_i c_i x_i(nu) - r`` is continuous, nonincreasing and
piecewise linear in ``nu``.  Its root is found by a safeguarded
semismooth Newton method: at each ``nu`` the coordinates split into
at-lower, at-upper and free, ``phi`` is linear with slope
``-sum_free c_i^2/a_i`` until the split changes, and the Newton step
jumps to the root of that linear piece.  A step that leaves the bracket
of known signs of ``phi`` is replaced by bisection on the float grid
(or by expansion while the bracket is one-sided).  The method stops
when the split at the new ``nu`` is the split it was solved from — an
exact KKT point, with no tolerance — after a handful of O(n) passes.
This is the step executed once per ADMM iteration on the consensus
node.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_vector

__all__ = ["KnapsackConvergenceError", "KnapsackResult", "solve_quadratic_knapsack"]


@dataclass(frozen=True)
class KnapsackResult:
    """Solution of a continuous quadratic knapsack problem.

    Attributes
    ----------
    x:
        The minimizer.
    nu:
        The equality-constraint multiplier at the solution.
    constraint_residual:
        ``|sum_i c_i x_i - r|`` at the returned point.
    iterations:
        Evaluations of ``phi`` (one O(n) pass each, Newton, bisection or
        expansion steps alike).
    """

    x: np.ndarray
    nu: float
    constraint_residual: float
    iterations: int


class KnapsackConvergenceError(RuntimeError):
    """The multiplier search used ``max_iter`` steps without a KKT point.

    ``iterations`` is the step count and ``residual`` the smallest
    ``|phi(nu)|`` seen, at multiplier ``nu``.
    """

    def __init__(self, iterations: int, residual: float, nu: float) -> None:
        super().__init__(
            f"quadratic knapsack did not converge in {iterations} iterations: "
            f"constraint residual {residual:.3g} at nu={nu:.6g}"
        )
        self.iterations = iterations
        self.residual = residual
        self.nu = nu


def solve_quadratic_knapsack(
    a,
    d,
    c,
    r: float = 0.0,
    lower=0.0,
    upper=np.inf,
    *,
    max_iter: int = 200,
) -> KnapsackResult:
    """Solve the diagonal QP with one equality constraint described above.

    Parameters
    ----------
    a:
        Strictly positive diagonal of the Hessian.
    d:
        Linear term.
    c:
        Equality-constraint coefficients (e.g. the labels ``y_i``); must
        not be all zero unless ``r`` is 0.
    r:
        Right-hand side of the equality constraint.
    lower, upper:
        Box bounds (scalars broadcast).
    max_iter:
        Maximum evaluations of ``phi``.

    Raises
    ------
    ValueError
        If the problem is infeasible (no x in the box satisfies the
        equality constraint) or ``a`` is not strictly positive.
    KnapsackConvergenceError
        If ``max_iter`` evaluations end without a KKT point.
    """
    a = check_vector(a, "a")
    n = a.shape[0]
    if np.any(a <= 0.0):
        raise ValueError("diagonal Hessian entries must be strictly positive")
    d = check_vector(d, "d", length=n)
    c = check_vector(c, "c", length=n)
    lo = np.broadcast_to(np.asarray(lower, dtype=float), (n,))
    hi = np.broadcast_to(np.asarray(upper, dtype=float), (n,))
    if np.any(lo > hi):
        raise ValueError("lower bound exceeds upper bound on some coordinate")
    r = float(r)

    # Feasibility check: the range of sum c_i x_i over the box.
    max_sum = float(np.sum(np.where(c > 0, c * hi, c * lo)))
    min_sum = float(np.sum(np.where(c > 0, c * lo, c * hi)))
    if not (min_sum - 1e-9 <= r <= max_sum + 1e-9):
        raise ValueError(
            f"infeasible knapsack: r={r} outside achievable range [{min_sum}, {max_sum}]"
        )

    q = -d / a
    slope = c / a  # a free x_i moves by -slope_i per unit of nu
    weight = c * slope  # c_i^2/a_i: a free coordinate's share of -dphi/dnu
    # Each pass reuses these buffers: at n in the tens of thousands,
    # fresh temporaries cost more than the arithmetic.
    t, x = np.empty(n), np.empty(n)
    at_lo, at_hi, free = (np.empty(n, dtype=bool) for _ in range(3))
    solved_lo, solved_hi = np.empty(n, dtype=bool), np.empty(n, dtype=bool)

    # Bracket (nu_lo, nu_hi) with phi(nu_lo) > 0 > phi(nu_hi); the
    # values at its ends pick the better end if it collapses.
    nu_lo, nu_hi = -np.inf, np.inf
    phi_lo, phi_hi = np.inf, -np.inf
    step = 1.0  # expansion step while the bracket is one-sided
    nu = 0.0
    newton = False  # whether nu was Newton-solved from (solved_lo, solved_hi)
    for iterations in range(1, max_iter + 1):
        np.subtract(q, np.multiply(slope, nu, out=t), out=t)
        np.less_equal(t, lo, out=at_lo)
        np.greater_equal(t, hi, out=at_hi)
        np.clip(t, lo, hi, out=x)
        value = float(c @ x) - r
        if value == 0.0 or (
            newton and np.array_equal(at_lo, solved_lo) and np.array_equal(at_hi, solved_hi)
        ):
            return KnapsackResult(x, nu, abs(value), iterations)
        if value > 0.0:
            nu_lo, phi_lo = nu, value
        else:
            nu_hi, phi_hi = nu, value

        np.logical_not(np.logical_or(at_lo, at_hi, out=free), out=free)
        free_weight = float(weight @ free)
        step_to = nu + value / free_weight if free_weight > 0.0 else np.nan
        newton = bool(nu_lo < step_to < nu_hi)
        if newton:
            nu = step_to
            at_lo, solved_lo = solved_lo, at_lo
            at_hi, solved_hi = solved_hi, at_hi
        elif np.isinf(nu_hi) or np.isinf(nu_lo):
            if free_weight == 0.0 and not _can_leave_bounds(at_lo, at_hi, c, lo < hi, value):
                # phi is constant from here on: r sits at the end of the
                # achievable range, within the feasibility slack.
                return KnapsackResult(x, nu, abs(value), iterations)
            nu = nu_lo + step if value > 0.0 else nu_hi - step
            step *= 2.0
        else:
            nu = _float_midpoint(nu_lo, nu_hi)
            if not nu_lo < nu < nu_hi:  # adjacent floats: take the better end
                nu = nu_lo if phi_lo <= -phi_hi else nu_hi
                np.clip(q - nu * slope, lo, hi, out=x)
                return KnapsackResult(x, nu, abs(float(c @ x) - r), iterations)

    best_nu, best_phi = (nu_lo, phi_lo) if phi_lo <= -phi_hi else (nu_hi, -phi_hi)
    raise KnapsackConvergenceError(max_iter, best_phi, best_nu)


def _can_leave_bounds(at_lo, at_hi, c, open_box, value: float) -> bool:
    """Whether moving ``nu`` towards the root frees some bound coordinate.

    ``phi > 0`` raises ``nu``, which lowers ``x_i`` where ``c_i > 0`` and
    raises it where ``c_i < 0``; ``phi < 0`` the reverse.
    """
    falls = c > 0.0 if value > 0.0 else c < 0.0
    rises = c < 0.0 if value > 0.0 else c > 0.0
    return bool(np.any(open_box & ((at_hi & falls) | (at_lo & rises))))


def _float_midpoint(lo: float, hi: float) -> float:
    """The float halfway between ``lo`` and ``hi`` in order, not in value.

    Halving the count of floats in the bracket reaches adjacent floats in
    at most 64 steps, even when the root is many orders of magnitude
    smaller than the bracket (where a Newton step ``nu + phi/slope``
    rounds back onto ``nu``).
    """
    return _from_rank((_rank(lo) + _rank(hi)) // 2)


def _rank(value: float) -> int:
    """Position of ``value`` among the floats (+0.0 and -0.0 share 0)."""
    bits = struct.unpack("<q", struct.pack("<d", value))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _from_rank(rank: int) -> float:
    value = struct.unpack("<d", struct.pack("<q", abs(rank)))[0]
    return value if rank >= 0 else -value
