"""Unit tests for the box-QP and quadratic-knapsack solvers."""

import numpy as np
import pytest

from repro.data.synthetic import make_higgs_like
from repro.svm.knapsack import KnapsackConvergenceError, solve_quadratic_knapsack
from repro.svm.qp import projected_gradient_residual, psd_factor, solve_box_qp


def ridge_factor(rng, n, ridge, rank=None):
    """A factor of ``G G' + ridge I`` for a random ``n x rank`` ``G``."""
    rank = rank if rank is not None else n
    return np.hstack([rng.normal(size=(n, rank)), np.sqrt(ridge) * np.eye(n)])


def objective(A, d, x):
    return 0.5 * np.sum((A.T @ x) ** 2) + d @ x


class TestSolveBoxQP:
    def test_unconstrained_interior_solution(self, rng):
        # Strongly convex with minimizer well inside the box.
        A = ridge_factor(rng, 5, 5.0)
        H = A @ A.T
        x_star = rng.uniform(0.3, 0.7, size=5)
        d = -H @ x_star
        result = solve_box_qp(A, d, 0.0, 1.0)
        assert result.converged
        np.testing.assert_allclose(result.x, x_star, atol=1e-6)

    def test_active_bounds(self):
        # min (x-2)^2 on [0, 1] -> x = 1; min (x+3)^2 -> x = 0.
        A = np.eye(2) * np.sqrt(2.0)
        d = np.array([-4.0, 6.0])
        result = solve_box_qp(A, d, 0.0, 1.0)
        np.testing.assert_allclose(result.x, [1.0, 0.0], atol=1e-10)

    def test_kkt_residual_reported(self, rng):
        A = ridge_factor(rng, 8, 1.0)
        d = rng.normal(size=8)
        result = solve_box_qp(A, d, 0.0, 10.0, tol=1e-10)
        assert result.kkt_residual <= 1e-10

    def test_warm_start_converges_faster(self, rng):
        A = ridge_factor(rng, 30, 0.1)
        d = rng.normal(size=30)
        cold = solve_box_qp(A, d, 0.0, 5.0)
        warm = solve_box_qp(A, d, 0.0, 5.0, x0=cold.x)
        assert warm.iterations <= cold.iterations
        np.testing.assert_allclose(warm.x, cold.x, atol=1e-6)

    def test_degenerate_zero_diagonal_linear_coordinate(self):
        # Coordinate with H_ii = 0: objective linear, pushes to a bound.
        A = np.array([[np.sqrt(2.0)], [0.0]])
        d = np.array([0.0, -3.0])  # second coordinate wants upper bound
        result = solve_box_qp(A, d, 0.0, 4.0)
        assert result.x[1] == pytest.approx(4.0)

    def test_matches_brute_force_on_small_grid(self, rng):
        A = ridge_factor(rng, 2, 1.0)
        H = A @ A.T
        d = rng.normal(size=2)
        result = solve_box_qp(A, d, 0.0, 1.0, tol=1e-12)
        grid = np.linspace(0, 1, 201)
        best = min(
            0.5 * np.array([a, b]) @ H @ np.array([a, b]) + d @ np.array([a, b])
            for a in grid
            for b in grid
        )
        assert result.objective <= best + 1e-6

    def test_rejects_factor_and_linear_term_length_mismatch(self, rng):
        with pytest.raises(ValueError, match="length"):
            solve_box_qp(rng.normal(size=(3, 2)), np.zeros(2))

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError, match="lower bound exceeds"):
            solve_box_qp(np.eye(2), np.zeros(2), 1.0, 0.0)

    def test_per_coordinate_bounds(self):
        A = np.eye(2) * np.sqrt(2.0)
        d = np.array([-10.0, -10.0])
        result = solve_box_qp(A, d, np.array([0.0, 0.0]), np.array([1.0, 3.0]))
        np.testing.assert_allclose(result.x, [1.0, 3.0])

    def test_x0_projected_into_box(self):
        result = solve_box_qp(np.eye(2), np.zeros(2), 0.0, 1.0, x0=[5.0, -5.0])
        assert np.all(result.x >= 0.0) and np.all(result.x <= 1.0)

    def test_rank_deficient_factor_with_duplicate_rows(self, rng):
        # Rows 0/1 and 4/5 coincide, so the problem only sees their sums:
        # it equals the problem with each pair merged into one row whose
        # box is twice as wide.
        A = rng.normal(size=(8, 3))
        A[1], A[5] = A[0], A[4]
        d = rng.normal(size=8)
        d[1], d[5] = d[0], d[4]
        result = solve_box_qp(A, d, 0.0, 2.0, tol=1e-10)
        assert result.converged and result.kkt_residual <= 1e-10
        keep = [0, 2, 3, 4, 6, 7]
        merged = solve_box_qp(
            A[keep], d[keep], 0.0, np.where(np.isin(keep, [0, 4]), 4.0, 2.0), tol=1e-10
        )
        assert result.objective == pytest.approx(merged.objective, rel=1e-10, abs=1e-10)

    def test_factor_wider_than_tall(self, rng):
        # 5 x 12: H = A A' is full rank; the square Cholesky factor of
        # the same H must reach the same optimum.
        A = rng.normal(size=(5, 12))
        d = 3.0 * rng.normal(size=5)
        wide = solve_box_qp(A, d, 0.0, 1.0, tol=1e-10)
        square = solve_box_qp(psd_factor(A @ A.T), d, 0.0, 1.0, tol=1e-10)
        assert wide.converged and square.converged
        np.testing.assert_allclose(wide.x, square.x, atol=1e-8)
        assert wide.objective == pytest.approx(objective(A, d, wide.x), rel=1e-12)

    def test_zero_rows(self):
        result = solve_box_qp(np.zeros((0, 3)), np.zeros(0), 0.0, 1.0)
        assert result.x.shape == (0,)
        assert result.converged and result.iterations == 0
        assert result.kkt_residual == 0.0 and result.objective == 0.0

    def test_optimum_with_every_coordinate_at_a_bound(self, rng):
        A = rng.normal(size=(6, 2))
        d = np.array([50.0, -50.0, 50.0, -50.0, 50.0, -50.0])
        result = solve_box_qp(A, d, 0.0, 1.0)
        assert result.converged
        np.testing.assert_array_equal(result.x, [0.0, 1.0, 0.0, 1.0, 0.0, 1.0])

    def test_unbounded_below_raises(self):
        # x = (t, t) has zero curvature and slope -2 with no upper bound.
        with pytest.raises(ValueError, match="unbounded"):
            solve_box_qp(np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0]))

    def test_higgs_like_local_dual_cold_and_warm(self):
        # The H-lin local dual of one learner: 250 rows, a 250 x 29
        # factor [Y X / sqrt(a), y / sqrt(rho)], C = 50 (8 learners).
        data = make_higgs_like(250, seed=0)
        a, rho = 1.0 / 8 + 100.0, 100.0
        A = np.column_stack([data.X * data.y[:, None] / np.sqrt(a), data.y / np.sqrt(rho)])
        cold = solve_box_qp(A, -np.ones(250), 0.0, 50.0)
        assert cold.converged and cold.kkt_residual <= 1e-8
        # Round 1: d moves with the broadcast consensus (z, s).
        z = np.random.default_rng(1).normal(scale=0.1, size=data.X.shape[1])
        d = (rho / a) * data.y * (data.X @ z) + 0.05 * data.y - 1.0
        warm = solve_box_qp(A, d, 0.0, 50.0, x0=cold.x)
        assert warm.converged and warm.kkt_residual <= 1e-8
        assert warm.iterations < cold.iterations


class TestPsdFactor:
    def test_positive_definite_gives_cholesky(self, rng):
        G = rng.normal(size=(6, 6))
        H = G @ G.T + np.eye(6)
        A = psd_factor(H)
        np.testing.assert_allclose(A, np.tril(A))
        np.testing.assert_allclose(A @ A.T, H, rtol=1e-10, atol=1e-10)

    def test_singular_drops_the_null_space(self, rng):
        G = rng.normal(size=(7, 3))
        A = psd_factor(G @ G.T)
        assert A.shape == (7, 3)
        np.testing.assert_allclose(A @ A.T, G @ G.T, atol=1e-10)

    def test_rejects_nonsquare(self, rng):
        with pytest.raises(ValueError, match="square"):
            psd_factor(rng.normal(size=(3, 2)))


class TestProjectedGradientResidual:
    def test_zero_at_interior_stationary_point(self):
        grad = np.zeros(3)
        assert projected_gradient_residual(grad, np.ones(3) * 0.5, np.zeros(3), np.ones(3)) == 0.0

    def test_ignores_gradient_pushing_into_active_bound(self):
        grad = np.array([2.0])  # pushing down while at lower bound
        x, lo, hi = np.array([0.0]), np.array([0.0]), np.array([1.0])
        assert projected_gradient_residual(grad, x, lo, hi) == 0.0

    def test_flags_gradient_pulling_off_bound(self):
        grad = np.array([-2.0])  # wants to increase from lower bound
        x, lo, hi = np.array([0.0]), np.array([0.0]), np.array([1.0])
        assert projected_gradient_residual(grad, x, lo, hi) == 2.0


class TestQuadraticKnapsack:
    def test_satisfies_equality_constraint(self, rng):
        n = 20
        a = rng.uniform(0.5, 2.0, size=n)
        d = rng.normal(size=n)
        c = rng.choice([-1.0, 1.0], size=n)
        result = solve_quadratic_knapsack(a, d, c, 0.0, 0.0, 5.0)
        assert result.constraint_residual < 1e-8

    def test_respects_box(self, rng):
        n = 15
        result = solve_quadratic_knapsack(
            np.ones(n), rng.normal(size=n), rng.choice([-1.0, 1.0], size=n), 0.0, 0.0, 2.0
        )
        assert np.all(result.x >= -1e-12) and np.all(result.x <= 2.0 + 1e-12)

    def test_matches_generic_qp_solution(self, rng):
        # Cross-check against an equality-eliminated closed form on n=2:
        # min a1/2 x1^2 + d1 x1 + a2/2 x2^2 + d2 x2 s.t. x1 - x2 = 0.
        a = np.array([2.0, 3.0])
        d = np.array([-4.0, 1.0])
        c = np.array([1.0, -1.0])
        result = solve_quadratic_knapsack(a, d, c, 0.0, -10.0, 10.0)
        # With x1 = x2 = t: minimize (a1+a2)/2 t^2 + (d1+d2) t.
        t = -(d.sum()) / a.sum()
        np.testing.assert_allclose(result.x, [t, t], atol=1e-8)

    def test_nonzero_rhs(self):
        # min sum x_i^2 / 2 s.t. x1 + x2 = 3, 0 <= x <= 2 -> (1.5, 1.5).
        result = solve_quadratic_knapsack(
            np.ones(2), np.zeros(2), np.ones(2), 3.0, 0.0, 2.0
        )
        np.testing.assert_allclose(result.x, [1.5, 1.5], atol=1e-8)

    def test_infeasible_raises(self):
        with pytest.raises(ValueError, match="infeasible"):
            solve_quadratic_knapsack(np.ones(2), np.zeros(2), np.ones(2), 100.0, 0.0, 1.0)

    def test_rejects_nonpositive_hessian(self):
        with pytest.raises(ValueError, match="strictly positive"):
            solve_quadratic_knapsack(np.array([1.0, 0.0]), np.zeros(2), np.ones(2))

    def test_kkt_structure(self, rng):
        # Interior coordinates must satisfy a_i x_i + d_i + nu c_i = 0.
        n = 30
        a = rng.uniform(1.0, 2.0, size=n)
        d = rng.normal(size=n)
        c = rng.choice([-1.0, 1.0], size=n)
        result = solve_quadratic_knapsack(a, d, c, 0.0, 0.0, 1.0)
        interior = (result.x > 1e-6) & (result.x < 1.0 - 1e-6)
        if interior.any():
            stationarity = a[interior] * result.x[interior] + d[interior] + result.nu * c[interior]
            np.testing.assert_allclose(stationarity, 0.0, atol=1e-6)


def ties(rng):
    # Equal diagonals and repeated linear terms: duplicate breakpoints.
    n = 60
    d = rng.choice([-3.0, -1.0, 0.0, 2.0], size=n)
    return np.full(n, 0.5), d, rng.choice([-1.0, 1.0], size=n), 0.0, 0.0, 4.0


def all_at_bound(rng):
    # As many +1 as -1 coordinates want the upper bound and the rest the
    # lower: the optimum has every coordinate at a bound, and phi's root
    # is a whole flat piece.
    n = 40
    c = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    d = np.where(np.arange(n) < 20, -100.0, 100.0)
    order = rng.permutation(n)
    return np.ones(n), d[order], c[order], 0.0, 0.0, 1.0


def fixed_coordinates(rng):
    n = 50
    hi = np.where(rng.random(n) < 0.3, 0.0, 3.0)  # lo == hi on ~30%
    c = rng.choice([-1.0, 1.0], size=n)
    return rng.uniform(0.5, 2.0, n), rng.normal(size=n), c, 0.0, 0.0, hi


def nonzero_rhs(rng):
    n = 45
    lo, hi = rng.uniform(-2.0, 0.0, n), rng.uniform(0.5, 2.0, n)
    c = rng.normal(size=n)
    r = float(c @ rng.uniform(lo, hi))
    return rng.uniform(0.1, 5.0, n), 10.0 * rng.normal(size=n), c, r, lo, hi


def zero_coefficients(rng):
    n = 40
    c = rng.normal(size=n)
    c[rng.random(n) < 0.25] = 0.0
    return rng.uniform(0.5, 2.0, n), rng.normal(size=n), c, 1.5, 0.0, 2.0


def reducer_shaped(n, seed=0, M=4.0, rho=100.0, C=50.0):
    """The Reducer's knapsack: ``a = M/rho``, ``c = y``, box ``[0, C]``."""
    rng = np.random.default_rng(seed)
    y = rng.choice([-1.0, 1.0], size=n)
    cbar = rng.normal(0.0, 0.3, size=n) + 0.2 * y
    return np.full(n, M / rho), M * y * cbar - 1.0, y, 0.0, 0.0, C


EXACT_CASES = [ties, all_at_bound, fixed_coordinates, nonzero_rhs, zero_coefficients]


def assert_free_coordinates_stationary(a, d, c, lo, hi, result):
    """``a_i x_i + d_i + nu c_i = 0`` to 1e-10 relative off the bounds."""
    x, nu = result.x, result.nu
    free = (x > lo) & (x < hi)
    terms = np.abs(a * x) + np.abs(d) + np.abs(nu * c)
    assert np.all(np.abs(a * x + d + nu * c)[free] <= 1e-10 * terms[free])


class TestKnapsackExactness:
    @pytest.mark.parametrize("case", EXACT_CASES, ids=lambda case: case.__name__)
    def test_matches_breakpoint_reference(self, case, rng, knapsack_reference):
        a, d, c, r, lo, hi = case(rng)
        result = solve_quadratic_knapsack(a, d, c, r, lo, hi)
        expected = knapsack_reference(a, d, c, r, lo, hi)
        scale = max(1.0, np.abs(expected).max())
        np.testing.assert_allclose(result.x, expected, rtol=0.0, atol=1e-10 * scale)

    @pytest.mark.parametrize("case", EXACT_CASES, ids=lambda case: case.__name__)
    def test_free_coordinates_are_stationary(self, case, rng):
        a, d, c, r, lo, hi = case(rng)
        result = solve_quadratic_knapsack(a, d, c, r, lo, hi)
        assert_free_coordinates_stationary(a, d, c, lo, hi, result)

    def test_all_at_bound_has_no_free_coordinate(self, rng):
        result = solve_quadratic_knapsack(*all_at_bound(rng))
        assert set(np.unique(result.x)) <= {0.0, 1.0}

    def test_rhs_at_end_of_range(self):
        # r sits 1e-10 above the largest achievable sum (inside the
        # feasibility slack): every coordinate ends at its upper bound.
        result = solve_quadratic_knapsack(
            np.ones(5), np.zeros(5), np.ones(5), 5.0 + 1e-10, 0.0, 1.0
        )
        np.testing.assert_array_equal(result.x, np.ones(5))
        assert result.constraint_residual <= 1e-9

    def test_root_far_below_the_bracket_scale(self, knapsack_reference):
        # The root nu ~ 8.5e-183 is below the rounding of a Newton step
        # taken from nu ~ 0.1; bisection on the float grid gets there.
        a, d, c = np.full(2, 0.5), np.array([0.0, -4.0]), np.full(2, -2.0)
        problem = (a, d, c, -6.8e-182, 0.0, np.array([1.0, 0.0]))
        result = solve_quadratic_knapsack(*problem)
        np.testing.assert_allclose(result.x, knapsack_reference(*problem), rtol=1e-12, atol=0.0)
        assert result.iterations <= 20

    def test_reducer_shaped_converges_in_few_iterations(self):
        # Bisection to an absolute 1e-12 ran out its 200 steps on this shape.
        a, d, c, r, lo, hi = reducer_shaped(32_000)
        result = solve_quadratic_knapsack(a, d, c, r, lo, hi)
        assert result.iterations <= 10
        assert result.constraint_residual <= 1e-9
        assert ((result.x > lo) & (result.x < hi)).any()
        assert_free_coordinates_stationary(a, d, c, lo, hi, result)

    def test_exhausted_budget_raises(self):
        a, d, c, r, lo, hi = reducer_shaped(500)
        with pytest.raises(KnapsackConvergenceError, match="1 iterations") as caught:
            solve_quadratic_knapsack(a, d, c, r, lo, hi, max_iter=1)
        assert caught.value.iterations == 1
        assert caught.value.residual > 0.0
