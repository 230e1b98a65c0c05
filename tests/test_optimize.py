import dataclasses

import numpy as np
import pytest

from magicnoise import (
    Dimension,
    FrameSearchPoint,
    Operator,
    OptimizerConfig,
    decode_frame,
    minimize_omega,
    nelder_mead,
    params_from_unitary,
    magic_state,
    random_state,
    subtheory_floor,
    validate_frame,
)
from magicnoise import optimize
from magicnoise.frames import OVERLAP_FLOOR
from magicnoise.optimize import SIMPLEX_SCALE, _Objective

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
    def _starts(monkeypatch, rho, restarts: int, p: float = 0.3) -> list[np.ndarray]:
        """The start of every run, each run stopped where it starts."""
        starts = []

        def record(fn, x0, *args):
            starts.append(x0.copy())
            return x0, fn(x0)

        monkeypatch.setattr(optimize, "nelder_mead", record)
        minimize_omega(p, rho, OptimizerConfig(restarts=restarts))
        return starts

    def test_distinct_and_deterministic(self, monkeypatch, strange):
        first = self._starts(monkeypatch, strange, 6)
        again = self._starts(monkeypatch, strange, 6)
        assert len({x.tobytes() for x in first}) == 6
        assert all(np.array_equal(a, b) for a, b in zip(first, again))

    def test_repeated_start_runs_once(self, monkeypatch, strange):
        # at p = 1 the noisy state is 1/d: its eigenbasis start is the
        # Fourier start, bit for bit, and is not run again
        assert len(self._starts(monkeypatch, strange, 2, p=1.0)) == 1

    def test_repeated_start_keeps_the_result(self, strange):
        two = minimize_omega(1.0, strange, OptimizerConfig(restarts=2))
        one = minimize_omega(1.0, strange, OptimizerConfig(restarts=1))
        assert two.params.tobytes() == one.params.tobytes()
        assert two.objective == one.objective

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

    @pytest.mark.parametrize("d", [3, 5])
    def test_full_noise_search_ignores_the_state(self, d):
        # at p = 1 every state is 1/d, so the search is a function of d
        dim = Dimension(d)
        if d == 3:
            states = [magic_state(k, dim) for k in ("strange", "norrell")]
        else:
            states = [magic_state("custom", dim, [0, 1, -1, 0, 0])]
        states.append(random_state(dim, 5))
        points = [minimize_omega(1.0, rho, SMALL) for rho in states]
        for point in points[1:]:
            assert point.params.tobytes() == points[0].params.tobytes()
            assert point.objective == points[0].objective

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
