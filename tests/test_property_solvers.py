"""Property-based tests (hypothesis) for the QP/knapsack/SMO solvers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.svm.kernels import LinearKernel, RBFKernel
from repro.svm.knapsack import solve_quadratic_knapsack
from repro.svm.qp import solve_box_qp
from repro.svm.smo import solve_svm_dual

finite_floats = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


@st.composite
def box_qp_problems(draw):
    """A factor of ``G G' + ridge I``, a linear term and a box width."""
    n = draw(st.integers(2, 8))
    G = draw(
        hnp.arrays(float, (n, n), elements=finite_floats)
    )
    A = np.hstack([G, np.eye(n) * np.sqrt(draw(st.floats(0.1, 2.0)))])
    d = draw(hnp.arrays(float, (n,), elements=finite_floats))
    C = draw(st.floats(0.5, 10.0))
    return A, d, C


class TestBoxQPProperties:
    @given(box_qp_problems())
    @settings(max_examples=40, deadline=None)
    def test_solution_in_box_and_kkt(self, problem):
        A, d, C = problem
        result = solve_box_qp(A, d, 0.0, C, tol=1e-8)
        assert np.all(result.x >= -1e-12)
        assert np.all(result.x <= C + 1e-12)
        assert result.kkt_residual <= 1e-8

    @given(box_qp_problems())
    @settings(max_examples=25, deadline=None)
    def test_objective_no_worse_than_vertices(self, problem):
        A, d, C = problem
        H = A @ A.T
        result = solve_box_qp(A, d, 0.0, C, tol=1e-10)

        def obj(x):
            return 0.5 * x @ H @ x + d @ x

        n = H.shape[0]
        for corner in (np.zeros(n), np.full(n, C)):
            assert result.objective <= obj(corner) + 1e-6

    @given(box_qp_problems(), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_warm_start_reaches_same_objective(self, problem, seed):
        A, d, C = problem
        cold = solve_box_qp(A, d, 0.0, C, tol=1e-10)
        x0 = np.random.default_rng(seed).uniform(0, C, size=A.shape[0])
        warm = solve_box_qp(A, d, 0.0, C, x0=x0, tol=1e-10)
        assert abs(cold.objective - warm.objective) < 1e-5


@st.composite
def knapsack_problems(draw):
    n = draw(st.integers(2, 12))
    a = draw(hnp.arrays(float, (n,), elements=st.floats(0.1, 5.0)))
    d = draw(hnp.arrays(float, (n,), elements=finite_floats))
    c = draw(hnp.arrays(float, (n,), elements=st.sampled_from([-1.0, 1.0])))
    C = draw(st.floats(0.5, 5.0))
    return a, d, c, C


class TestKnapsackProperties:
    @given(knapsack_problems())
    @settings(max_examples=50, deadline=None)
    def test_feasibility(self, problem):
        a, d, c, C = problem
        result = solve_quadratic_knapsack(a, d, c, 0.0, 0.0, C)
        assert result.constraint_residual < 1e-6
        assert np.all(result.x >= -1e-9)
        assert np.all(result.x <= C + 1e-9)

    @given(knapsack_problems())
    @settings(max_examples=30, deadline=None)
    def test_optimality_vs_random_feasible_points(self, problem):
        a, d, c, C = problem
        result = solve_quadratic_knapsack(a, d, c, 0.0, 0.0, C)

        def obj(x):
            return float(0.5 * (a * x) @ x + d @ x)

        # Compare against random feasible perturbations projected back
        # onto the constraint via pairs with opposite signs.
        rng = np.random.default_rng(0)
        best = obj(result.x)
        for _ in range(20):
            x = rng.uniform(0, C, size=len(a))
            # project onto {c'x = 0} then clip (approximately feasible)
            x = x - (c @ x) / (c @ c) * c
            x = np.clip(x, 0.0, C)
            if abs(c @ x) < 1e-9:
                assert best <= obj(x) + 1e-6

    @given(st.integers(2, 10), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_scaling_invariance(self, n, seed):
        # Scaling (a, d) by the same factor leaves the minimizer fixed.
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.5, 2.0, size=n)
        d = rng.normal(size=n)
        c = rng.choice([-1.0, 1.0], size=n)
        base = solve_quadratic_knapsack(a, d, c, 0.0, 0.0, 3.0)
        scaled = solve_quadratic_knapsack(7.0 * a, 7.0 * d, c, 0.0, 0.0, 3.0)
        np.testing.assert_allclose(base.x, scaled.x, atol=1e-6)


@st.composite
def general_knapsack_problems(draw):
    """Knapsacks with ties, zero coefficients, fixed coordinates and r != 0."""
    n = draw(st.integers(2, 12))
    a = draw(hnp.arrays(float, (n,), elements=st.sampled_from([0.5, 1.0, 2.0, 3.7])))
    d = draw(hnp.arrays(float, (n,), elements=st.sampled_from([-4.0, -1.0, 0.0, 0.5, 3.0])))
    c = draw(hnp.arrays(float, (n,), elements=st.sampled_from([-2.0, -1.0, 0.0, 1.0, 1.5])))
    hi = draw(hnp.arrays(float, (n,), elements=st.sampled_from([0.0, 1.0, 2.5])))
    weights = draw(hnp.arrays(float, (n,), elements=st.floats(0.0, 1.0)))
    r = float(c @ (weights * hi))  # achievable: a point of the box
    return a, d, c, r, np.zeros(n), hi


class TestKnapsackExactnessProperties:
    @given(general_knapsack_problems())
    @settings(max_examples=100, deadline=None)
    def test_matches_breakpoint_reference(self, knapsack_reference, problem):
        result = solve_quadratic_knapsack(*problem)
        np.testing.assert_allclose(result.x, knapsack_reference(*problem), rtol=0.0, atol=1e-10)

    @given(general_knapsack_problems())
    @settings(max_examples=100, deadline=None)
    def test_free_coordinates_are_stationary(self, problem):
        a, d, c, r, lo, hi = problem
        result = solve_quadratic_knapsack(a, d, c, r, lo, hi)
        x, nu = result.x, result.nu
        free = (x > lo) & (x < hi)
        terms = np.abs(a * x) + np.abs(d) + np.abs(nu * c)
        assert np.all(np.abs(a * x + d + nu * c)[free] <= 1e-10 * terms[free])


@st.composite
def svm_datasets(draw):
    n = draw(st.integers(6, 24))
    k = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, k))
    y = rng.choice([-1.0, 1.0], size=n)
    # Ensure both classes present.
    y[0], y[1] = 1.0, -1.0
    C = draw(st.floats(0.5, 20.0))
    return X, y, C


class TestSMOProperties:
    @given(svm_datasets())
    @settings(max_examples=40, deadline=None)
    def test_constraints_hold(self, problem):
        X, y, C = problem
        K = LinearKernel().gram(X)
        result = solve_svm_dual(K, y, C, tol=1e-6)
        assert np.all(result.alpha >= -1e-10)
        assert np.all(result.alpha <= C + 1e-10)
        assert abs(float(y @ result.alpha)) < 1e-6

    @given(svm_datasets())
    @settings(max_examples=30, deadline=None)
    def test_dual_objective_nonpositive(self, problem):
        X, y, C = problem
        K = RBFKernel(gamma=0.5).gram(X)
        result = solve_svm_dual(K, y, C, tol=1e-6)
        Q = np.outer(y, y) * K
        obj = 0.5 * result.alpha @ Q @ result.alpha - result.alpha.sum()
        assert obj <= 1e-9

    @given(svm_datasets())
    @settings(max_examples=20, deadline=None)
    def test_kkt_margins_at_convergence(self, problem):
        X, y, C = problem
        K = LinearKernel().gram(X)
        result = solve_svm_dual(K, y, C, tol=1e-8)
        if not result.converged:
            return
        scores = K @ (result.alpha * y) + result.bias
        margins = y * scores
        free = (result.alpha > 1e-6) & (result.alpha < C - 1e-6)
        # Free support vectors sit on the margin.
        if free.any():
            np.testing.assert_allclose(margins[free], 1.0, atol=1e-3)
        # Zero-alpha points are outside or on the margin (up to tol).
        zero = result.alpha <= 1e-10
        if zero.any():
            assert margins[zero].min() > 1.0 - 1e-2
