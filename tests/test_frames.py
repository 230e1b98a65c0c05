import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm, logm

from magicnoise import (
    SUPPORTED_DIMENSIONS,
    VALIDATION_TOL,
    DegenerateFrameError,
    Dimension,
    ExactFrame,
    Operator,
    canonical_mub_frame,
    computational_basis,
    decode_frame,
    fourier_basis,
    fourier_gate,
    gross_wigner_frame,
    kd_frame,
    kd_matrix,
    magic_state,
    params_from_unitary,
    phase_point_operators,
    random_state,
    random_unitary,
    unitary_from_params,
    validate_frame,
    weyl_operator,
)
from magicnoise.frames import (
    _log_unitary,
    _upper,
    hermitian_from_params,
    params_from_hermitian,
)


class TestPhasePointOperators:
    @pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
    def test_base_point_is_parity(self, d):
        dim = Dimension(d)
        a0 = phase_point_operators(dim)[0].entries
        parity = np.zeros((d, d))
        for x in range(d):
            parity[(-x) % d, x] = 1.0
        assert np.abs(a0 - parity).max() < 1e-12

    @pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
    def test_covariance_hermiticity_trace(self, d):
        dim = Dimension(d)
        ops = phase_point_operators(dim)
        a0 = ops[0].entries
        for k, op in enumerate(ops):
            a = op.entries
            assert np.abs(a - a.conj().T).max() < 1e-12
            assert abs(np.trace(a) - 1.0) < 1e-12
            w = weyl_operator(dim, k // d, k % d).entries
            assert np.abs(a - w @ a0 @ w.conj().T).max() < 1e-12

    @pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
    def test_pairwise_trace_orthogonality(self, d):
        ops = phase_point_operators(Dimension(d))
        stack = np.stack([op.entries for op in ops])
        gram = np.einsum("aij,bji->ab", stack, stack)
        assert np.abs(gram - d * np.eye(d * d)).max() < 1e-10


class TestGrossFrame:
    @pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
    def test_passes_validation(self, d):
        report = validate_frame(gross_wigner_frame(Dimension(d)))
        assert report["passed"], report

    def test_descriptor_and_size(self, gross3):
        assert gross3.descriptor == {"kind": "gross"}
        assert len(gross3.analysis) == len(gross3.synthesis) == 9

    def test_analysis_is_synthesis_over_d(self, gross3):
        for f, dd in zip(gross3.analysis, gross3.synthesis):
            assert np.abs(f.entries - dd.entries / 3).max() < 1e-14


class TestKDFrame:
    def test_canonical_mub_descriptor(self, mub3):
        assert mub3.descriptor == {
            "kind": "kd",
            "basis_a": "computational",
            "basis_b": "fourier",
        }

    @pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
    def test_canonical_mub_passes_validation(self, d):
        report = validate_frame(canonical_mub_frame(Dimension(d)))
        assert report["passed"], report

    def test_canonical_mub_residuals_at_round_off_for_d7(self):
        # the Fourier basis of stabilizer_bases takes w to exponents reduced
        # mod d; w^(xy) unreduced left residuals near 2e-15 at d = 7
        report = validate_frame(canonical_mub_frame(Dimension(7)))
        for key in ("biorthogonality", "normalization", "synthesis_trace", "reconstruction"):
            assert report[key] <= 1e-15, (key, report[key])

    def test_point_operators(self, mub3, d3):
        comp = computational_basis(d3)
        four = fourier_basis(d3)
        # point k is the pair (a_i, b_j) with (i, j) = divmod(k, d)
        k = 5
        i, j = divmod(k, 3)
        ov = four[:, j].conj() @ comp[:, i]
        f_expect = ov * np.outer(four[:, j], comp[:, i].conj())
        d_expect = np.outer(comp[:, i], four[:, j].conj()) / ov
        assert np.abs(mub3.analysis[k].entries - f_expect).max() < 1e-12
        assert np.abs(mub3.synthesis[k].entries - d_expect).max() < 1e-12
        assert abs(np.trace(mub3.analysis[k].entries) - abs(ov) ** 2) < 1e-12

    def test_rejects_orthogonal_bases(self, d3):
        basis = computational_basis(d3)
        with pytest.raises(DegenerateFrameError):
            kd_frame(d3, basis, basis)

    def test_degenerate_error_names_offending_pair(self, d3):
        basis = computational_basis(d3)
        with pytest.raises(DegenerateFrameError, match=r"b_0\|a_1|b_1\|a_0"):
            kd_frame(d3, basis, basis)

    def test_rejects_non_orthonormal_basis(self, d3):
        bad = computational_basis(d3)
        bad = bad.copy()
        bad[:, 0] *= 2.0
        with pytest.raises(ValueError):
            kd_frame(d3, bad, fourier_basis(d3))

    def test_kd_frame_and_kd_matrix_reject_a_nan_basis(self, d3, strange):
        # both go through qudit.orthonormal_basis
        bad = computational_basis(d3)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="basis A is not orthonormal"):
            kd_frame(d3, bad, fourier_basis(d3))
        with pytest.raises(ValueError, match="basis A is not orthonormal"):
            kd_matrix(strange, bad, fourier_basis(d3))

    @pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
    @pytest.mark.parametrize("seed", range(5))
    def test_random_unitary_frames_pass_validation(self, d, seed):
        dim = Dimension(d)
        u = random_unitary(dim, seed=seed)
        v = random_unitary(dim, seed=seed + 1000)
        report = validate_frame(kd_frame(dim, u.entries, v.entries))
        assert report["passed"], report


class TestStacks:
    @pytest.mark.parametrize("builder", [gross_wigner_frame, canonical_mub_frame])
    def test_same_read_only_array_on_every_call(self, builder, d3):
        frame = builder(d3)
        for ops, stack in (
            (frame.analysis, frame.analysis_stack),
            (frame.synthesis, frame.synthesis_stack),
        ):
            first = stack()
            assert stack() is first
            assert not first.flags.writeable
            assert np.array_equal(first, [op.entries for op in ops])


class TestValidationReport:
    def test_frame_needs_d_squared_points(self, d3, gross3):
        with pytest.raises(ValueError, match="exactly 9 sample points"):
            ExactFrame(d3, gross3.analysis[:-1], gross3.synthesis, {"kind": "gross"})

    def test_reports_broken_frame(self, d3, mub3):
        # perturb one analysis operator; reconstruction must fail
        analysis = list(mub3.analysis)
        bad = analysis[0].entries.copy()
        bad[0, 0] += 0.05
        analysis[0] = Operator(d3, bad)
        broken = type(mub3)(
            d3, tuple(analysis), mub3.synthesis, dict(mub3.descriptor)
        )
        report = validate_frame(broken)
        assert not report["passed"]
        assert report["reconstruction"] > 1e-3

    def test_report_dict_fields(self, gross3):
        data = validate_frame(gross3)
        assert set(data) == {
            "d",
            "biorthogonality",
            "normalization",
            "synthesis_trace",
            "reconstruction",
            "tolerance",
            "passed",
        }
        assert data["d"] == 3
        assert data["tolerance"] == VALIDATION_TOL
        assert data["passed"] is True


class TestRepresentationValues:
    def test_computational_zero_state_wigner_values(self, d3, gross3):
        rho = magic_state("custom", d3, custom_vec=[1, 0, 0])
        vals = np.array(
            [np.trace(f.entries @ rho.entries) for f in gross3.analysis]
        )
        assert np.abs(vals.imag).max() < 1e-14
        expect = np.zeros(9)
        expect[[0, 3, 6]] = 1.0 / 3.0
        assert np.abs(vals.real - expect).max() < 1e-12

    def test_strange_state_wigner_values(self, strange, gross3):
        vals = np.array(
            [np.trace(f.entries @ strange.entries).real for f in gross3.analysis]
        )
        assert abs(vals[0] + 1.0 / 3.0) < 1e-12
        assert np.abs(vals[1:] - 1.0 / 6.0).max() < 1e-12

    def test_norrell_state_wigner_values(self, norrell, gross3):
        vals = np.array(
            [np.trace(f.entries @ norrell.entries).real for f in gross3.analysis]
        )
        # one -1/6 at the origin, 1/3 and -1/6 elsewhere in the first column
        expect = {
            (0, 0): -1 / 6,
            (0, 1): 1 / 3,
            (0, 2): -1 / 6,
        }
        for k in range(9):
            lab = divmod(k, 3)
            want = expect.get(lab, 1 / 6)
            assert abs(vals[k] - want) < 1e-12, lab


@given(st.integers(0, 2), st.integers(0, 2))
def test_basis_state_kd_distribution_is_born_row(i, j):
    """A defining-basis eigenstate's KD matrix lives on one row and equals
    the Born probabilities of the other basis."""
    dim = Dimension(3)
    frame = canonical_mub_frame(dim)
    comp = computational_basis(dim)
    rho = magic_state("custom", dim, custom_vec=comp[:, i])
    vals = np.array(
        [np.trace(f.entries @ rho.entries) for f in frame.analysis]
    ).reshape(3, 3)
    assert np.abs(vals.imag).max() < 1e-12
    assert np.abs(vals.real[np.arange(3) != i, :]).max() < 1e-12
    assert np.abs(vals.real[i, :] - 1.0 / 3.0).max() < 1e-12


class TestUnitaryParametrization:
    @given(st.integers(0, 500))
    def test_roundtrip_random_unitaries(self, seed):
        dim = Dimension(3)
        u = random_unitary(dim, seed)
        params = params_from_unitary(u.entries)
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
        assert validate_frame(frame)["passed"]
        assert frame.descriptor == {"kind": "parametrized"}

    def test_decode_frame_wrong_size(self):
        with pytest.raises(ValueError):
            decode_frame(Dimension(3), np.zeros(17))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("index", [0, 3, 4])  # diagonal, Re and Im upper
    def test_non_finite_params_rejected_without_warning(self, value, index):
        dim = Dimension(3)
        params = np.zeros(18)
        params[index] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                unitary_from_params(dim, params[:9])
            with pytest.raises(ValueError, match="non-finite"):
                decode_frame(dim, params)
            params = np.roll(params, 9)  # the second unitary's parameters
            with pytest.raises(ValueError, match="non-finite"):
                decode_frame(dim, params)


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
        params = params_from_unitary(u)
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


def _random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return g + g.conj().T


def _hermitian_by_index_writes(d: int, params: np.ndarray) -> np.ndarray:
    """Reference layout: H written entry by entry from its coordinates."""
    h = np.zeros(params.shape[:-1] + (d, d), dtype=complex)
    diag = np.arange(d)
    h[..., diag, diag] = params[..., :d]
    rows, cols = _upper(d)
    vals = params[..., d::2] + 1j * params[..., d + 1 :: 2]
    h[..., rows, cols] = vals
    h[..., cols, rows] = vals.conj()
    return h


class TestHermitianCoordinates:
    @pytest.mark.parametrize("d", [3, 5, 7])
    @pytest.mark.parametrize("batch", [(), (2,), (5,)])
    def test_matches_the_index_write_layout(self, d, batch):
        rng = np.random.default_rng(d)
        for _ in range(50):
            params = rng.normal(0.0, 2.0, size=batch + (d * d,))
            # exact zeros too: reports print the sign of a zero entry
            params[rng.random(params.shape) < 0.3] = 0.0
            h = hermitian_from_params(d, params)
            want = _hermitian_by_index_writes(d, params)
            assert h.shape == batch + (d, d)
            assert np.array_equal(h, want)
            assert h.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_coordinates_are_adjoint_to_the_witness(self, d):
        # the polytope certificate's W: y . coords(H) == Tr(W(y) H), W built
        # by hermitian_from_params with the strict-upper weights halved
        rng = np.random.default_rng(d)
        for _ in range(20):
            h = _random_hermitian(rng, d)
            y = rng.normal(size=d * d)
            w = hermitian_from_params(d, np.concatenate([y[:d], y[d:] / 2.0]))
            lhs = y @ params_from_hermitian(h)
            assert abs(lhs - np.trace(w @ h).real) <= 1e-12 * max(1.0, abs(lhs))
            assert abs(np.trace(w @ h).imag) <= 1e-12

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_round_trip_and_batching(self, d):
        rng = np.random.default_rng(d)
        hs = np.stack([_random_hermitian(rng, d) for _ in range(4)])
        coords = params_from_hermitian(hs)
        assert coords.shape == (4, d * d)
        assert np.array_equal(hermitian_from_params(d, coords), hs)
        for h, row in zip(hs, coords):
            assert np.array_equal(params_from_hermitian(h), row)
