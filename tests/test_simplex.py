import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linprog

from magicnoise import SimplexError, simplex, solve_lp

seeds = st.integers(0, 5_000)


def _random_system(seed: int, feasible: bool):
    """A x = b with x >= 0: feasible systems are built from a known solution."""
    rng = np.random.default_rng(seed)
    m, n = rng.integers(2, 7), rng.integers(3, 10)
    a = rng.normal(size=(m, n))
    if feasible:
        x = rng.uniform(0.1, 2.0, size=n)
        b = a @ x
    else:
        b = rng.normal(size=m)
    return a, b


def _oracle_feasible(a: np.ndarray, b: np.ndarray) -> bool:
    res = linprog(
        c=np.zeros(a.shape[1]),
        A_eq=a,
        b_eq=b,
        bounds=[(0, None)] * a.shape[1],
        method="highs",
    )
    return res.status == 0


def _feasible_point(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Phase one alone: solve_lp with zero cost returns a feasible vertex."""
    return solve_lp(np.zeros(a.shape[1]), a, b).x


class TestPhaseOne:
    def test_trivial_identity_system(self):
        a = np.eye(3)
        b = np.array([1.0, 2.0, 3.0])
        assert np.abs(_feasible_point(a, b) - b).max() < 1e-10

    def test_negative_rhs_is_flipped(self):
        a = -np.eye(2)
        b = np.array([-1.0, -2.0])
        assert np.abs(a @ _feasible_point(a, b) - b).max() < 1e-10
        # with a cost, the duals come back in the unflipped rows' signs
        res = solve_lp(np.ones(2), a, b)
        assert np.abs(res.y + 1.0).max() < 1e-12
        assert abs(res.y @ b - res.objective) < 1e-12

    def test_known_infeasible(self):
        # x1 + x2 = -1 has no solution with x >= 0
        with pytest.raises(SimplexError, match="infeasible"):
            _feasible_point(np.array([[1.0, 1.0]]), np.array([-1.0]))

    def test_redundant_rows(self):
        a = np.array([[1.0, 1.0], [2.0, 2.0]])
        b = np.array([1.0, 2.0])
        assert np.abs(a @ _feasible_point(a, b) - b).max() < 1e-10

    @given(seeds)
    def test_constructed_feasible_systems(self, seed):
        a, b = _random_system(seed, feasible=True)
        x = _feasible_point(a, b)
        assert np.abs(a @ x - b).max() < 1e-7
        assert x.min() >= 0.0

    @given(seeds)
    def test_agrees_with_reference_solver(self, seed):
        a, b = _random_system(seed, feasible=False)
        try:
            _feasible_point(a, b)
            ours = True
        except SimplexError:
            ours = False
        assert ours == _oracle_feasible(a, b)

    def test_deterministic(self):
        a, b = _random_system(42, feasible=True)
        r1 = solve_lp(np.zeros(a.shape[1]), a, b)
        r2 = solve_lp(np.zeros(a.shape[1]), a, b)
        assert np.abs(r1.x - r2.x).max() == 0
        assert r1.iterations == r2.iterations

    def test_iteration_cap(self, monkeypatch):
        a, b = _random_system(7, feasible=True)
        monkeypatch.setattr(simplex, "MAX_PIVOTS", 1)
        with pytest.raises(SimplexError, match="within 1 pivots"):
            _feasible_point(a, b)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            _feasible_point(np.zeros((2, 3)), np.zeros(3))


class TestSolveLP:
    @given(seeds)
    def test_agrees_with_reference_solver(self, seed):
        a, b = _random_system(seed, feasible=True)
        rng = np.random.default_rng(seed + 1)
        c = np.abs(rng.normal(size=a.shape[1]))  # bounded below on x >= 0
        ours = solve_lp(c, a, b)
        ref = linprog(c, A_eq=a, b_eq=b, bounds=[(0, None)] * a.shape[1], method="highs")
        assert abs(ours.objective - ref.fun) < 1e-8
        assert np.abs(a @ ours.x - b).max() < 1e-8 and ours.x.min() >= 0.0
        # the duals certify optimality: dual feasible, zero duality gap
        assert (a.T @ ours.y - c).max() < 1e-9
        assert abs(ours.y @ b - ours.objective) < 1e-9

    def test_redundant_rows_are_dropped(self):
        a = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
        b = np.array([1.0, 2.0, 1.0])
        res = solve_lp(np.array([1.0, 0.0, 0.0]), a, b)
        assert abs(res.objective) < 1e-12
        assert np.abs(a @ res.x - b).max() < 1e-12
        assert (a.T @ res.y <= np.array([1.0, 0.0, 0.0]) + 1e-12).all()

    def test_infeasible_raises(self):
        with pytest.raises(SimplexError, match="infeasible"):
            solve_lp(np.ones(2), np.array([[1.0, 1.0]]), np.array([-1.0]))

    def test_unbounded_raises(self):
        with pytest.raises(SimplexError, match="unbounded"):
            solve_lp(np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([1.0]))

    def test_rejects_bad_cost(self):
        with pytest.raises(ValueError):
            solve_lp(np.ones(3), np.eye(2), np.ones(2))
