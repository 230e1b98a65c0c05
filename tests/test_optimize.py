import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from magicnoise import (
    Dimension,
    Operator,
    OptimizerConfig,
    decode_frame,
    fourier_gate,
    maximally_mixed,
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
from magicnoise.optimize import _Objective


class TestOptimizerConfig:
    def test_defaults(self):
        cfg = OptimizerConfig()
        assert cfg.restarts == 1
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


class TestSearchStart:
    @pytest.mark.parametrize("d", [3, 5])
    def test_one_run_from_the_fourier_frame(self, monkeypatch, d):
        dim = Dimension(d)
        starts = []

        def record(fn, x0, *args):
            starts.append(x0.copy())
            return x0, fn(x0)

        monkeypatch.setattr(optimize, "nelder_mead", record)
        minimize_omega(dim)
        want = np.concatenate([np.zeros(d * d), params_from_unitary(fourier_gate(dim).entries)])
        assert [x.tobytes() for x in starts] == [want.tobytes()]


class TestMinimizeOmega:
    def test_certificate_frame_is_valid_and_reproduces_objective(self, d3):
        from magicnoise import standard_operational_set
        from magicnoise.representations import subtheory_witness

        params, objective = minimize_omega(d3)
        frame = decode_frame(d3, params)
        assert validate_frame(frame)["passed"]
        opset = standard_operational_set(maximally_mixed(d3), 1.0)
        value = subtheory_witness(frame.analysis_stack(), frame.synthesis_stack(), opset)
        assert abs(value - objective) < 1e-9

    def test_pinned_qutrit_objective(self, d3):
        _, objective = minimize_omega(d3)
        assert objective == pytest.approx(16.39230484541327, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("d", [3, 5])
    def test_full_noise_objective_ignores_the_state(self, d):
        # at p = 1 every state is 1/d, so the search is a function of d
        from magicnoise import standard_operational_set

        dim = Dimension(d)
        if d == 3:
            states = [magic_state(k, dim) for k in ("strange", "norrell")]
        else:
            states = [magic_state("custom", dim, [0, 1, -1, 0, 0])]
        states.append(random_state(dim, 5))
        cached = optimize._full_noise_objective(d)
        rng = np.random.default_rng(d)
        xs = [rng.normal(0.0, 0.5, size=2 * d * d) for _ in range(3)]
        for rho in states:
            objective = _Objective(standard_operational_set(rho, 1.0))
            assert [objective(x) for x in xs] == [cached(x) for x in xs]

    def test_operational_set_built_once_per_d(self, monkeypatch, d3):
        built = []
        real = optimize.standard_operational_set

        def counted(rho, p):
            built.append((rho.dim.d, p))
            return real(rho, p)

        monkeypatch.setattr(optimize, "standard_operational_set", counted)
        optimize._full_noise_objective.cache_clear()
        first, _ = minimize_omega(d3)
        second, _ = minimize_omega(d3)
        assert built == [(3, 1.0)]
        assert second.tobytes() == first.tobytes()
        minimize_omega(Dimension(5))
        assert built == [(3, 1.0), (5, 1.0)]

    def test_no_operational_set_is_built_at_import(self):
        code = (
            "import magicnoise.cli\n"
            "from magicnoise import optimize\n"
            "print(optimize._full_noise_objective.cache_info().currsize)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"

    def test_subtheory_scope_stays_large(self, d3):
        _, objective = minimize_omega(d3)
        assert objective >= subtheory_floor(3)


class TestObjective:
    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_equals_witness_of_the_decoded_frame(self, d, p):
        from magicnoise import standard_operational_set
        from magicnoise.representations import subtheory_witness

        dim = Dimension(d)
        opset = standard_operational_set(random_state(dim, d), p)
        objective = _Objective(opset)
        rng = np.random.default_rng(d)
        for _ in range(5):
            x = rng.normal(0.0, 0.5, size=2 * d * d)
            frame = decode_frame(dim, x)
            want = subtheory_witness(frame.analysis_stack(), frame.synthesis_stack(), opset)
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
        x = np.concatenate([np.zeros(9), params_from_unitary(b.entries)])
        assert (abs(q[0, 0]) <= OVERLAP_FLOOR) != finite
        value = _Objective(standard_operational_set(strange, 0.5))(x)
        assert np.isfinite(value) if finite else value == np.inf
