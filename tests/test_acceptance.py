"""End-to-end acceptance checks for the full library and CLI.

Every test here prints exactly one verdict line of the form
``[ACCEPTANCE] NN <label>: PASS`` (or ``FAIL``); the terminal-summary hook
in conftest.py replays those lines at the end of the run so they are
visible even under output capture.
"""

import contextlib
import subprocess
import sys
import time

import numpy as np

from magicnoise import (
    Dimension,
    OptimizerConfig,
    canonical_mub_frame,
    clifford_generators,
    computational_basis,
    depolarize,
    fourier_basis,
    gross_wigner_frame,
    kd_frame,
    kd_matrix,
    kd_povm,
    kd_sequential,
    kd_threshold,
    magic_state,
    mub_frame_stabilizer_check,
    penalty,
    polytope_threshold,
    random_state,
    random_unitary,
    represent_channel,
    represent_effect,
    represent_state,
    stabilizer_polytope_membership,
    stabilizer_states,
    unitary_channel,
    validate_frame,
    wigner_threshold,
)


@contextlib.contextmanager
def verdict(label: str):
    """Print one PASS/FAIL line for the enclosed block, then re-raise."""
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {label}: FAIL")
        raise
    print(f"[ACCEPTANCE] {label}: PASS")


def _random_effect(rng_local: np.random.Generator, d: int) -> np.ndarray:
    g = rng_local.normal(size=(d, d)) + 1j * rng_local.normal(size=(d, d))
    m = g.conj().T @ g
    return m / (np.linalg.eigvalsh(m).max() + 0.1)


def test_01_frame_axioms_across_dimensions():
    with verdict("01 frame-axioms"):
        start = time.perf_counter()
        for d in (3, 5, 7):
            dim = Dimension(d)
            frames = [gross_wigner_frame(dim)]
            for k in range(20):
                a = random_unitary(dim, seed=1000 * d + 2 * k).entries
                b = random_unitary(dim, seed=1000 * d + 2 * k + 1).entries
                frames.append(kd_frame(dim, a, b))
            for frame in frames:
                report = validate_frame(frame)
                assert report["passed"], report
                residuals = (
                    report["biorthogonality"],
                    report["normalization"],
                    report["reconstruction"],
                    report["synthesis_trace"],
                )
                assert max(residuals) < 1e-10, (frame.descriptor, residuals)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"


def test_02_empirical_adequacy_reproduces_born_rule():
    with verdict("02 empirical-adequacy"):
        start = time.perf_counter()
        dim = Dimension(3)
        rng_local = np.random.default_rng(202)
        frames = [
            gross_wigner_frame(dim),
            canonical_mub_frame(dim),
            kd_frame(
                dim,
                random_unitary(dim, seed=71).entries,
                random_unitary(dim, seed=72).entries,
            ),
        ]
        for frame in frames:
            worst = 0.0
            for k in range(100):
                rho = random_state(dim, seed=5000 + k).entries
                effect = _random_effect(rng_local, 3)
                w = np.einsum("lij,ji->l", frame.analysis_stack(), rho)
                xi = np.einsum("lij,ji->l", frame.synthesis_stack(), effect)
                predicted = np.sum(w * xi)
                born = np.trace(effect @ rho)
                worst = max(worst, abs(predicted - born))
            assert worst < 1e-10, (frame.descriptor, worst)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"


def test_03_gross_frame_is_nonnegative_exactly_on_stabilizer_objects():
    with verdict("03 gross-nonnegativity"):
        dim = Dimension(3)
        frame = gross_wigner_frame(dim)
        stab = stabilizer_states(dim)
        for state in stab:
            assert penalty(represent_state(frame, state)) < 1e-12
        for proj in stab:  # MUB projectors double as effects
            assert penalty(represent_effect(frame, proj)) < 1e-12
        for gate in clifford_generators(dim):
            dist = represent_channel(frame, frame, unitary_channel(gate))
            assert penalty(dist) < 1e-12
        for kind in ("strange", "norrell"):
            assert penalty(represent_state(frame, magic_state(kind, dim))) > 0.01


def test_04_wigner_threshold_matches_independent_grid_oracle():
    with verdict("04 wigner-threshold-oracle"):
        start = time.perf_counter()
        d = 3
        rho = magic_state("strange", Dimension(d)).entries

        # Independent oracle: rebuild the nine phase-point values from the
        # displacement operators alone and locate the threshold on a fixed
        # 1e-6-step grid, with no reuse of the closed-form expression.
        omega = np.exp(2j * np.pi / d)
        shift = np.zeros((d, d), dtype=complex)
        for x in range(d):
            shift[(x + 1) % d, x] = 1.0
        clock = np.diag(omega ** np.arange(d))
        half = (d + 1) // 2
        a0 = np.zeros((d, d), dtype=complex)
        for p in range(d):
            for q in range(d):
                zp = np.linalg.matrix_power(clock, p)
                xq = np.linalg.matrix_power(shift, q)
                a0 += omega ** ((-half * p * q) % d) * (zp @ xq)
        a0 /= d
        points = np.empty(d * d)
        for a1 in range(d):
            for a2 in range(d):
                w_op = np.linalg.matrix_power(clock, a1) @ np.linalg.matrix_power(
                    shift, a2
                )
                a_point = w_op @ a0 @ w_op.conj().T
                val = np.trace(a_point @ rho) / d
                assert abs(val.imag) < 1e-12
                points[a1 * d + a2] = val.real
        assert abs(points.sum() - 1.0) < 1e-10

        ps = np.linspace(0.0, 1.0, 1_000_001)
        mins = np.min(
            (1.0 - ps)[:, None] * points[None, :] + ps[:, None] / d**2, axis=1
        )
        hits = mins >= -1e-12
        assert hits.any()
        oracle_p = float(ps[int(np.argmax(hits))])

        result = wigner_threshold(magic_state("strange", Dimension(d)))
        assert abs(result.p - oracle_p) < 1e-6, (result.p, oracle_p)
        assert abs(result.certificate["w_min"] - points.min()) < 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


def test_05_wigner_threshold_never_exceeds_polytope_threshold():
    with verdict("05 polytope-containment"):
        start = time.perf_counter()
        dim = Dimension(3)
        states = [magic_state("strange", dim), magic_state("norrell", dim)]
        states += [random_state(dim, seed=300 + k) for k in range(20)]
        for rho in states:
            p_w = wigner_threshold(rho).p
            poly = polytope_threshold(rho, tol=1e-6)
            assert p_w <= poly.p + 2e-6, (p_w, poly.p)
            assert poly.certificate["coincidence_with_wigner"] in (
                "CONFIRMED",
                "REFUTED",
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"


def test_06_polytope_certificates_reconstruct_their_states():
    with verdict("06 polytope-certificates"):
        dim = Dimension(3)
        stab = stabilizer_states(dim)
        projectors = np.stack([s.entries for s in stab])

        candidates = [depolarize(magic_state("strange", dim), 0.8)]
        candidates += [depolarize(magic_state("norrell", dim), 0.65)]
        candidates += list(stab)
        candidates += [random_state(dim, seed=800 + k) for k in range(5)]
        checked = 0
        for rho in candidates:
            cert = stabilizer_polytope_membership(rho)
            if cert is None:
                continue
            checked += 1
            coeffs = cert.coefficients
            assert coeffs.min() > -1e-10
            assert abs(coeffs.sum() - 1.0) < 1e-8
            rebuilt = np.tensordot(coeffs, projectors, axes=1)
            assert np.abs(rebuilt - rho.entries).max() < 1e-8
        assert checked >= 14  # the constructed members are all feasible

        # The maximally mixed state admits the uniform combination; the
        # solver may return any degenerate-optimal vertex, so only the
        # reconstruction is required to match, not the coefficients.
        mixed = depolarize(magic_state("strange", dim), 1.0)
        cert = stabilizer_polytope_membership(mixed)
        assert cert is not None
        rebuilt = np.tensordot(cert.coefficients, projectors, axes=1)
        assert np.abs(rebuilt - np.eye(3) / 3.0).max() < 1e-8
        uniform = np.full(12, 1.0 / 12.0)
        uniform_rebuild = np.tensordot(uniform, projectors, axes=1)
        assert np.abs(uniform_rebuild - np.eye(3) / 3.0).max() < 1e-10


def test_07_kd_threshold_stays_below_wigner_threshold_or_flags_gap():
    with verdict("07 kd-ordering"):
        start = time.perf_counter()
        dim = Dimension(3)
        rho = magic_state("strange", dim)
        config = OptimizerConfig(restarts=32)
        result = kd_threshold(rho, config=config, scope="state", tol=1e-3)
        p_w = wigner_threshold(rho).p

        assert result.p == 0.0
        assert abs(result.certificate["p_wigner"] - p_w) < 1e-12
        assert result.p <= p_w + 1e-4
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"


def test_08_mub_frame_classicality_of_defining_basis_states():
    with verdict("08 mub-frame-classicality"):
        check = mub_frame_stabilizer_check(Dimension(3))
        assert len(check["per_state"]) == 12
        defining = [e for e in check["per_state"] if e["defining_basis"]]
        beyond = [e for e in check["per_state"] if not e["defining_basis"]]
        assert len(defining) == 6 and len(beyond) == 6
        for entry in defining:
            assert entry["penalty"] < 1e-12, entry
        for entry in beyond:  # informational: recorded, not constrained
            assert np.isfinite(entry["penalty"])
        assert check["verdict"] in ("CONFIRMED", "REFUTED")


def test_09_penalty_decays_monotonically_with_noise():
    with verdict("09 monotone-decay"):
        dim = Dimension(3)
        rho = magic_state("strange", dim)
        for frame in (gross_wigner_frame(dim), canonical_mub_frame(dim)):
            values = [
                penalty(represent_state(frame, depolarize(rho, p)))
                for p in np.linspace(0.0, 1.0, 101)
            ]
            drops = np.diff(values)
            assert drops.max() <= 1e-12, (frame.descriptor, drops.max())


def test_10_cli_reports_are_deterministic():
    with verdict("10 determinism"):
        args = [
            sys.executable,
            "-m",
            "magicnoise",
            "threshold",
            "--method",
            "kd",
        ]
        first = subprocess.run(args, capture_output=True, timeout=300)
        second = subprocess.run(args, capture_output=True, timeout=300)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout  # byte-identical reports


def test_11_kd_constructions_agree_on_random_states():
    with verdict("11 kd-oracle-equivalence"):
        dim = Dimension(3)
        comp = computational_basis(dim)
        four = fourier_basis(dim)
        for k in range(50):
            rho = random_state(dim, seed=9000 + k)
            if k % 2 == 0:
                a, b = comp, four
            else:
                a = random_unitary(dim, seed=9100 + k).entries
                b = random_unitary(dim, seed=9200 + k).entries
            m = kd_matrix(rho, a, b)
            s = kd_sequential(rho, [a, b])
            povm_a = [np.outer(a[:, i], a[:, i].conj()) for i in range(3)]
            povm_b = [np.outer(b[:, j], b[:, j].conj()) for j in range(3)]
            g = kd_povm(rho, [povm_a, povm_b])
            assert np.abs(m - s).max() < 1e-12
            assert np.abs(m - g).max() < 1e-12
