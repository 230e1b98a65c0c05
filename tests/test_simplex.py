import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linprog

from magicnoise import SimplexError, phase_one, solve_lp

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


class TestPhaseOne:
    def test_trivial_identity_system(self):
        a = np.eye(3)
        b = np.array([1.0, 2.0, 3.0])
        res = phase_one(a, b)
        assert res.objective < 1e-10
        assert np.abs(res.x - b).max() < 1e-10

    def test_negative_rhs_is_flipped(self):
        a = -np.eye(2)
        b = np.array([-1.0, -2.0])
        res = phase_one(a, b)
        assert res.objective < 1e-10
        assert np.abs(a @ res.x - b).max() < 1e-10

    def test_known_infeasible(self):
        # x1 + x2 = -1 has no solution with x >= 0
        a = np.array([[1.0, 1.0]])
        b = np.array([-1.0])
        res = phase_one(a, b)
        assert res.objective > 0.5

    def test_redundant_rows(self):
        a = np.array([[1.0, 1.0], [2.0, 2.0]])
        b = np.array([1.0, 2.0])
        res = phase_one(a, b)
        assert res.objective < 1e-10
        assert np.abs(a @ res.x - b).max() < 1e-10

    @given(seeds)
    def test_constructed_feasible_systems(self, seed):
        a, b = _random_system(seed, feasible=True)
        res = phase_one(a, b)
        assert res.objective < 1e-8
        assert np.abs(a @ res.x - b).max() < 1e-7
        assert res.x.min() >= -1e-10

    @given(seeds)
    def test_agrees_with_reference_solver(self, seed):
        a, b = _random_system(seed, feasible=False)
        ours = phase_one(a, b).objective < 1e-8
        assert ours == _oracle_feasible(a, b)

    def test_deterministic(self):
        a, b = _random_system(42, feasible=True)
        r1 = phase_one(a, b)
        r2 = phase_one(a, b)
        assert np.abs(r1.x - r2.x).max() == 0
        assert r1.iterations == r2.iterations

    def test_iteration_cap(self):
        a, b = _random_system(7, feasible=True)
        with pytest.raises(SimplexError):
            phase_one(a, b, max_iterations=1)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            phase_one(np.zeros((2, 3)), np.zeros(3))


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
