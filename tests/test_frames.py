import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from magicnoise import (
    SUPPORTED_DIMENSIONS,
    DegenerateFrameError,
    Dimension,
    Operator,
    WeylIndex,
    canonical_mub_frame,
    computational_basis,
    fourier_basis,
    frame_from_unitaries,
    gross_wigner_frame,
    kd_frame,
    magic_state,
    phase_point_operators,
    random_unitary,
    validate_frame,
    weyl_operator,
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
            w = weyl_operator(dim, WeylIndex(k // d, k % d)).entries
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
        assert report.passed, report.to_dict()

    def test_descriptor_and_labels(self, gross3):
        assert gross3.descriptor == {"kind": "gross"}
        assert gross3.labels[:4] == ((0, 0), (0, 1), (0, 2), (1, 0))
        assert len(gross3.labels) == 9

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
        assert report.passed, report.to_dict()

    def test_point_operators(self, mub3, d3):
        comp = computational_basis(d3)
        four = fourier_basis(d3)
        # flat index i*d + j labels pair (a_i, b_j)
        i, j = 1, 2
        k = i * 3 + j
        assert mub3.labels[k] == (i, j)
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

    @pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
    @pytest.mark.parametrize("seed", range(5))
    def test_random_unitary_frames_pass_validation(self, d, seed):
        dim = Dimension(d)
        u = random_unitary(dim, seed=seed)
        v = random_unitary(dim, seed=seed + 1000)
        frame = frame_from_unitaries(u, v)
        report = validate_frame(frame)
        assert report.passed, report.to_dict()
        assert frame.descriptor["kind"] == "parametrized"


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
    def test_reports_broken_frame(self, d3, mub3):
        # perturb one analysis operator; reconstruction must fail
        analysis = list(mub3.analysis)
        bad = analysis[0].entries.copy()
        bad[0, 0] += 0.05
        analysis[0] = Operator(d3, bad)
        broken = type(mub3)(
            d3, mub3.labels, tuple(analysis), mub3.synthesis, dict(mub3.descriptor)
        )
        report = validate_frame(broken)
        assert not report.passed
        assert report.reconstruction > 1e-3

    def test_report_dict_fields(self, gross3):
        data = validate_frame(gross3).to_dict()
        for key in (
            "d",
            "size_ok",
            "biorthogonality",
            "normalization",
            "synthesis_trace",
            "reconstruction",
            "tolerance",
            "passed",
        ):
            assert key in data, key


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
        for k, lab in enumerate(gross3.labels):
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
