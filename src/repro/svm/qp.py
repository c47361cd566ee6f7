"""Box-constrained convex quadratic programming on a factored Hessian.

The ADMM local subproblems of the horizontally partitioned schemes reduce
to duals of the form

    minimize    (1/2) ||A' x||^2 + d' x      (i.e. H = A A')
    subject to  lo <= x <= hi   (elementwise)

(eq. (12) of the paper, after the bias penalty removes the equality
constraint — see DESIGN.md §6).  ``A`` is ``n x r``; for the linear
scheme ``r`` is the feature count plus one, usually far below ``n``, so
``H`` is rank deficient and is never formed.

We solve this with an exact primal active-set method.  Coordinates held
at a bound form the working set; the rest are free.  Each iteration
minimises the objective over the face of the free set with one SVD of
the free rows ``A_F`` (or, when ``A_F`` has full row rank and is well
conditioned, one Cholesky factorisation of ``A_F A_F'``):

* the part of the free gradient ``g_F`` outside ``range(A_F)`` is a
  direction of zero curvature along which the objective falls linearly
  — if it is not negligible we move along it;
* otherwise the Newton step ``p_F = A_F s`` with ``(A_F' A_F) s = -c``
  (``A_F c`` the part of ``g_F`` inside the range) lands on the face
  minimiser, whatever the conditioning.

The step follows the projected path ``clip(x + t p)`` to its first
minimum, so one iteration can pin many coordinates at once.  At a face
minimiser every bound whose multiplier has the wrong sign is released
(only the worst one, if releasing them all made no progress).  The
method stops on the projected-gradient KKT test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from repro.utils.validation import check_matrix, check_vector

__all__ = ["BoxQPResult", "psd_factor", "solve_box_qp"]

#: Cholesky diagonals spread wider than this mark H_FF as ill-conditioned
#: (its condition number is at least the squared spread, 1e8); the face
#: step then takes the SVD, which resolves near-null directions.
_CHOLESKY_RATIO = 1e-4


@dataclass(frozen=True)
class BoxQPResult:
    """Solution of a box-constrained QP.

    Attributes
    ----------
    x:
        The minimizer found.
    iterations:
        Number of active-set iterations performed.
    kkt_residual:
        Infinity norm of the projected gradient at ``x`` (0 at exact
        optimality).
    converged:
        Whether ``kkt_residual <= tol`` was reached within the iteration
        budget.
    objective:
        Final objective value ``(1/2) x'Hx + d'x``.
    """

    x: np.ndarray
    iterations: int
    kkt_residual: float
    converged: bool
    objective: float


def _projected_gradient(
    grad: np.ndarray, x: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """The gradient, zeroed where it presses a coordinate into its bound."""
    residual = grad.copy()
    residual[(x <= lo) & (grad > 0)] = 0.0
    residual[(x >= hi) & (grad < 0)] = 0.0
    return residual


def projected_gradient_residual(
    grad: np.ndarray, x: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> float:
    """Infinity norm of the projected gradient (first-order KKT residual).

    A coordinate contributes its gradient magnitude unless it sits at the
    bound the gradient is pushing it towards.
    """
    return float(np.max(np.abs(_projected_gradient(grad, x, lo, hi)), initial=0.0))


def psd_factor(H) -> np.ndarray:
    """A factor ``A`` with ``A A' = H`` for a symmetric PSD matrix ``H``.

    The Cholesky factor when ``H`` is positive definite; otherwise the
    eigenvectors scaled by the square roots of the eigenvalues that are
    not zero to working precision, so ``A`` has as many columns as
    ``H`` has rank.
    """
    H = check_matrix(H, "H", allow_empty=True)
    if H.shape[0] != H.shape[1]:
        raise ValueError(f"H must be square, got {H.shape}")
    try:
        return np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        eigenvalues, vectors = np.linalg.eigh(H)
        keep = eigenvalues > eigenvalues[-1] * H.shape[0] * np.finfo(float).eps
        return vectors[:, keep] * np.sqrt(eigenvalues[keep])


def _face_direction(A_f: np.ndarray, g_f: np.ndarray, tol: float) -> np.ndarray:
    """Descent direction on the face: zero curvature if there is one, else Newton."""
    if A_f.shape[1] == 0:
        return -g_f
    if A_f.shape[0] <= A_f.shape[1]:
        # A_F may have full row rank; then H_FF = A_F A_F' is positive
        # definite, range(A_F) is everything, and the Newton step is one
        # Cholesky solve — several times cheaper than the SVD below when
        # A_F is wide.
        try:
            factor = sla.cho_factor(A_f @ A_f.T, lower=True)
        except np.linalg.LinAlgError:
            pass
        else:
            diag = np.abs(np.diag(factor[0]))
            if diag.min() > _CHOLESKY_RATIO * diag.max():
                return -sla.cho_solve(factor, g_f)
    U, sigma, _ = np.linalg.svd(A_f, full_matrices=False)
    rank = int(np.sum(sigma > sigma[0] * max(A_f.shape) * np.finfo(float).eps))
    U, sigma = U[:, :rank], sigma[:rank]
    coef = U.T @ g_f
    remainder = g_f - U @ coef
    # Project twice: one pass leaves rounding error of the size of g_f
    # inside the range, enough to spoil a small remainder's descent.
    remainder -= U @ (U.T @ remainder)
    if np.max(np.abs(remainder), initial=0.0) > 0.5 * tol:
        return -remainder
    return -U @ (coef / sigma**2)


def _projected_search(
    A: np.ndarray,
    d: np.ndarray,
    x: np.ndarray,
    v: np.ndarray,
    grad: np.ndarray,
    p: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> tuple[float, np.ndarray]:
    """First minimum of the objective along ``clip(x + t p, lo, hi)``, t >= 0.

    The path is piecewise linear: a coordinate stops where it reaches its
    bound.  Returns the step and the coordinates pinned on the way.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        limit = np.where(p > 0, (hi - x) / p, np.where(p < 0, (lo - x) / p, np.inf))
    order = np.argsort(limit, kind="stable")
    order = order[np.isfinite(limit[order])]
    p = p.copy()
    q = A.T @ p
    slope = float(grad @ p)
    v = v.copy()
    t = 0.0
    pinned = 0
    for i in order:
        if slope >= 0.0:
            break
        curvature = float(q @ q)
        gap = limit[i] - t
        if curvature > 0.0 and -slope < gap * curvature:
            t -= slope / curvature
            break
        t = limit[i]
        v += gap * q
        slope += gap * curvature - (A[i] @ v + d[i]) * p[i]
        q -= A[i] * p[i]
        p[i] = 0.0
        pinned += 1
    else:
        # Every bounded coordinate is pinned; the rest move without limit.
        if slope < 0.0 and np.any(p):
            curvature = float(q @ q)
            # Curvature at the rounding level of A'p is no curvature.
            noise = len(p) * np.finfo(float).eps * np.linalg.norm(A) * np.linalg.norm(p)
            if curvature <= noise**2:
                raise ValueError("box QP is unbounded below")
            t -= slope / curvature
    return t, order[:pinned]


def solve_box_qp(
    A,
    d,
    lower=0.0,
    upper=np.inf,
    *,
    x0=None,
    tol: float = 1e-8,
    max_sweeps: int = 2000,
) -> BoxQPResult:
    """Minimize ``(1/2)||A'x||^2 + d'x`` subject to ``lower <= x <= upper``.

    Parameters
    ----------
    A:
        Factor of the PSD Hessian ``H = A A'``, shape ``(n, r)`` for any
        ``r`` (see :func:`psd_factor` when only ``H`` is at hand).
    d:
        Linear term of length ``n``.
    lower, upper:
        Box bounds; scalars broadcast to all coordinates.
    x0:
        Optional warm start (projected onto the box).  Warm starting with
        the previous ADMM iterate cuts iterations dramatically in the
        distributed trainers.
    tol:
        Convergence threshold on the projected-gradient infinity norm.
    max_sweeps:
        Budget of active-set iterations.

    Returns
    -------
    BoxQPResult
    """
    A = check_matrix(A, "A", allow_empty=True)
    n = A.shape[0]
    d = check_vector(d, "d", length=n)
    lo = np.broadcast_to(np.asarray(lower, dtype=float), (n,)).copy()
    hi = np.broadcast_to(np.asarray(upper, dtype=float), (n,)).copy()
    if np.any(lo > hi):
        raise ValueError("lower bound exceeds upper bound on some coordinate")

    x = np.clip(np.zeros(n) if x0 is None else check_vector(x0, "x0", length=n), lo, hi)
    v = A.T @ x
    grad = A @ v + d
    # Working set: coordinates at a bound the gradient presses them into.
    fixed = ((x <= lo) & (grad >= 0)) | ((x >= hi) & (grad <= 0))
    iterations = 0
    single = False
    residual = projected_gradient_residual(grad, x, lo, hi)

    while residual > tol and iterations < max_sweeps:
        iterations += 1
        released = not np.any(np.abs(grad[~fixed]) > tol)
        if released:
            # Face minimised: release the bounds with wrong-sign multipliers.
            wrong = np.abs(_projected_gradient(grad, x, lo, hi))
            wrong[~fixed] = 0.0
            if single:
                fixed[np.argmax(wrong)] = False
            else:
                fixed &= wrong <= tol
        free = np.flatnonzero(~fixed)
        p = np.zeros(n)
        p[free] = _face_direction(A[free], grad[free], tol)
        t, pinned = _projected_search(A, d, x, v, grad, p, lo, hi)
        if t == 0.0 and pinned.size == 0:
            break  # no descent left to working precision
        x = np.clip(x + t * p, lo, hi)
        x[pinned] = np.where(p[pinned] > 0, hi[pinned], lo[pinned])
        fixed[pinned] = True
        # Releasing every violator can push some straight back out; then
        # release one at a time until a step makes progress.
        single = t == 0.0 and (released or single)
        v = A.T @ x
        grad = A @ v + d
        residual = projected_gradient_residual(grad, x, lo, hi)

    objective = float(0.5 * v @ v + d @ x)
    return BoxQPResult(
        x=x,
        iterations=iterations,
        kkt_residual=residual,
        converged=residual <= tol,
        objective=objective,
    )
