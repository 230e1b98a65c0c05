import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm, logm

from magicnoise import (
    Dimension,
    FrameSearchPoint,
    Operator,
    OptimizerConfig,
    decode_frame,
    fourier_gate,
    minimize_omega,
    nelder_mead,
    params_from_unitary,
    random_state,
    random_unitary,
    subtheory_floor,
    unitary_from_params,
    validate_frame,
)
from magicnoise import optimize
from magicnoise.frames import OVERLAP_FLOOR
from magicnoise.optimize import SIMPLEX_SCALE, _log_unitary, _Objective

SMALL = OptimizerConfig(restarts=2)


class TestOptimizerConfig:
    def test_defaults(self):
        cfg = OptimizerConfig()
        assert cfg.restarts == 32
        names = [f.name for f in dataclasses.fields(cfg)]
        assert names == ["restarts"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"restarts": 0},
            {"restarts": -1},
            {"restarts": 1.5},
            {"restarts": "3"},
            {"restarts": True},
            {"restarts": None},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError, match="restarts must be a positive integer"):
            OptimizerConfig(**kwargs)


class TestUnitaryParametrization:
    @given(st.integers(0, 500))
    def test_roundtrip_random_unitaries(self, seed):
        dim = Dimension(3)
        u = random_unitary(dim, seed)
        params = params_from_unitary(u)
        back = unitary_from_params(dim, params)
        assert np.abs(back.entries - u.entries).max() < 1e-10

    @given(st.integers(0, 500))
    def test_params_always_give_unitary(self, seed):
        dim = Dimension(3)
        rng = np.random.default_rng(seed)
        params = rng.normal(0.0, 2.0, size=9)
        u = unitary_from_params(dim, params)
        assert u.role == "unitary"

    def test_zero_params_is_identity(self):
        dim = Dimension(3)
        u = unitary_from_params(dim, np.zeros(9))
        assert np.abs(u.entries - np.eye(3)).max() < 1e-14

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            unitary_from_params(Dimension(3), np.zeros(8))

    @pytest.mark.parametrize("seed", range(4))
    def test_decode_frame_is_valid(self, seed):
        dim = Dimension(3)
        rng = np.random.default_rng(seed)
        frame = decode_frame(dim, rng.normal(0.0, 0.5, size=18))
        assert validate_frame(frame).passed

    def test_decode_frame_wrong_size(self):
        with pytest.raises(ValueError):
            decode_frame(Dimension(3), np.zeros(17))


def _unitary_cases(d: int, seed: int) -> list[np.ndarray]:
    """A Haar-random unitary, the eigenbasis of a random state, and each
    times the Fourier gate."""
    dim = Dimension(d)
    f = fourier_gate(dim).entries
    u = random_unitary(dim, seed).entries
    _, v = np.linalg.eigh(random_state(dim, seed).entries)
    return [u, v, u @ f, v @ f]


class TestUnitaryLog:
    def _check(self, u: np.ndarray) -> np.ndarray:
        h = _log_unitary(u)
        assert np.abs(h - h.conj().T).max() <= 1e-14
        spectrum = np.linalg.eigvalsh(h)
        assert -np.pi - 1e-12 < spectrum.min() and spectrum.max() <= np.pi + 1e-12
        assert np.abs(expm(1j * h) - u).max() <= 1e-13
        dim = Dimension(u.shape[0])
        params = params_from_unitary(Operator(dim, u, role="unitary"))
        assert np.abs(unitary_from_params(dim, params).entries - u).max() <= 1e-13
        return h

    @pytest.mark.parametrize("d", [3, 5, 7])
    @given(st.integers(0, 2**32 - 1))
    def test_round_trip(self, d, seed):
        for u in _unitary_cases(d, seed):
            self._check(u)

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_identity_and_fourier_powers(self, d):
        eye = np.eye(d)
        assert np.abs(self._check(eye)).max() <= 1e-15
        assert np.abs(self._check(-eye) - np.pi * eye).max() <= 1e-14
        f = fourier_gate(Dimension(d)).entries
        for power in (f, f @ f, f @ f @ f):
            self._check(power)

    @pytest.mark.parametrize("d", [3, 5, 7])
    @given(st.integers(0, 2**32 - 1))
    def test_matches_logm_where_the_principal_log_is_unique(self, d, seed):
        for u in _unitary_cases(d, seed):
            if np.abs(np.linalg.eigvals(u) + 1.0).min() < 1e-6:
                continue  # an eigenvalue at -1 has two principal logs
            gen = logm(u)
            want = (gen - gen.conj().T) / 2j
            assert np.abs(_log_unitary(u) - want).max() <= 1e-12


class TestNelderMead:
    def test_minimizes_quadratic(self):
        fn = lambda x: float(((x - 2.0) ** 2).sum())
        x, fx = nelder_mead(fn, np.zeros(4), scale=0.5, max_iterations=600, ftol=1e-14)
        assert fx < 1e-8
        assert np.abs(x - 2.0).max() < 1e-3

    def test_minimizes_rosenbrock(self):
        def fn(x):
            return float(
                100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
            )

        x, fx = nelder_mead(
            fn, np.array([-1.2, 1.0]), scale=0.5, max_iterations=2000, ftol=1e-15
        )
        assert fx < 1e-6

    def test_never_worse_than_start(self):
        fn = lambda x: float(np.cos(x).sum() + 0.1 * (x ** 2).sum())
        x0 = np.array([0.3, -0.2, 0.9])
        _, fx = nelder_mead(fn, x0, scale=0.4, max_iterations=50, ftol=1e-12)
        assert fx <= fn(x0)

    def test_deterministic(self):
        fn = lambda x: float((x ** 4 - 3 * x ** 2 + x).sum())
        x0 = np.array([0.5, -0.5])
        r1 = nelder_mead(fn, x0, scale=0.3, max_iterations=200, ftol=1e-12)
        r2 = nelder_mead(fn, x0, scale=0.3, max_iterations=200, ftol=1e-12)
        assert np.abs(r1[0] - r2[0]).max() == 0
        assert r1[1] == r2[1]


class TestRestartSeeds:
    @staticmethod
    def _starts(monkeypatch, rho, restarts: int) -> list[np.ndarray]:
        """The start of every restart, each run stopped where it starts."""
        starts = []

        def record(fn, x0, *args):
            starts.append(x0.copy())
            return x0, fn(x0)

        monkeypatch.setattr(optimize, "nelder_mead", record)
        minimize_omega(0.3, rho, OptimizerConfig(restarts=restarts))
        return starts

    def test_distinct_and_deterministic(self, monkeypatch, strange):
        first = self._starts(monkeypatch, strange, 6)
        again = self._starts(monkeypatch, strange, 6)
        assert len({x.tobytes() for x in first}) == 6
        assert all(np.array_equal(a, b) for a, b in zip(first, again))

    def test_range(self, monkeypatch, strange):
        # over the whole range of restarts, r >= 2 is seeded by r alone
        starts = self._starts(monkeypatch, strange, 6)
        for r in range(2, 6):
            want = np.random.default_rng(r).normal(0.0, SIMPLEX_SCALE, size=18)
            assert np.array_equal(starts[r], want)


class TestMinimizeOmega:
    def test_certificate_frame_is_valid_and_reproduces_objective(self, strange):
        from magicnoise import omega, standard_operational_set

        p = 0.3
        point = minimize_omega(p, strange, SMALL)
        assert isinstance(point, FrameSearchPoint)
        frame = decode_frame(strange.dim, point.params)
        assert validate_frame(frame).passed
        opset = standard_operational_set(strange, p)
        value = omega(p, frame, opset, scope="subtheory")
        assert abs(value - point.objective) < 1e-9

    def test_more_restarts_never_hurt(self, strange):
        few = OptimizerConfig(restarts=2)
        more = OptimizerConfig(restarts=3)
        p_few = minimize_omega(0.15, strange, few)
        p_more = minimize_omega(0.15, strange, more)
        assert p_more.objective <= p_few.objective + 1e-15

    def test_subtheory_scope_stays_large(self, strange):
        point = minimize_omega(1.0, strange, SMALL)
        assert point.objective >= subtheory_floor(3)


class TestObjective:
    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_equals_omega_of_the_decoded_frame(self, d, p):
        from magicnoise import omega, standard_operational_set

        dim = Dimension(d)
        opset = standard_operational_set(random_state(dim, d), p)
        objective = _Objective(opset)
        rng = np.random.default_rng(d)
        for _ in range(5):
            x = rng.normal(0.0, 0.5, size=2 * d * d)
            want = omega(p, decode_frame(dim, x), opset, scope="subtheory")
            assert abs(objective(x) - want) <= 1e-12 * max(1.0, want)

    @pytest.mark.parametrize("eps, finite", [(0.0, False), (1e-9, False), (1e-6, True)])
    def test_inf_at_or_below_the_overlap_floor(self, strange, eps, finite):
        from magicnoise import standard_operational_set

        # A = computational basis, B = a unitary with |<b_0|a_0>| ~ eps
        # and every other overlap generic
        rng = np.random.default_rng(7)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        m[:, 0] = (eps, 0.6, 0.8)
        q, _ = np.linalg.qr(m)
        b = Operator(strange.dim, q, role="unitary")
        x = np.concatenate([np.zeros(9), params_from_unitary(b)])
        assert (abs(q[0, 0]) <= OVERLAP_FLOOR) != finite
        value = _Objective(standard_operational_set(strange, 0.5))(x)
        assert np.isfinite(value) if finite else value == np.inf
