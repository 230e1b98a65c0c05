import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from magicnoise import (
    Channel,
    Dimension,
    DimensionMismatchError,
    Operator,
    canonical_mub_frame,
    clifford_generators,
    computational_basis,
    depolarize,
    depolarizing_channel,
    fourier_basis,
    gross_wigner_frame,
    identity_channel,
    kd_frame,
    kd_matrix,
    kd_povm,
    kd_sequential,
    maximally_mixed,
    penalty,
    random_state,
    random_unitary,
    represent_channel,
    represent_effect,
    represent_state,
    stabilizer_states,
    standard_operational_set,
    unitary_channel,
)
from magicnoise.representations import subtheory_witness

seeds = st.integers(0, 10_000)


class TestRepresentStateAndEffect:
    def test_dimension_mismatch(self, gross3):
        rho5 = maximally_mixed(Dimension(5))
        with pytest.raises(DimensionMismatchError):
            represent_state(gross3, rho5)

    @pytest.mark.parametrize("d", [3, 5, 7])
    @given(seeds)
    def test_state_distribution_sums_to_one(self, d, seed):
        """Any frame whose F_lam resolve the identity represents a state by
        values summing to Tr(rho) = 1, and so do the three KD forms."""
        dim = Dimension(d)
        rho = random_state(dim, seed)
        a, b = random_unitary(dim, seed).entries, random_unitary(dim, seed + 1).entries
        eigvecs = np.linalg.eigh(rho.entries)[1]
        frames = (
            gross_wigner_frame(dim),
            canonical_mub_frame(dim),
            kd_frame(dim, a, b),
            kd_frame(dim, eigvecs, eigvecs @ fourier_basis(dim)),
        )
        for frame in frames:
            assert abs(represent_state(frame, rho).sum() - 1.0) < 1e-12
        povm_a = [np.outer(a[:, i], a[:, i].conj()) for i in range(d)]
        povm_b = [np.outer(b[:, j], b[:, j].conj()) for j in range(d)]
        trace = np.trace(rho.entries)
        for values in (
            kd_matrix(rho, a, b),
            kd_sequential(rho, [a, b]),
            kd_povm(rho, [povm_a, povm_b]),
        ):
            assert abs(values.sum() - trace) < 1e-12

    def test_unit_effect_is_flat_one(self, gross3, mub3, d3):
        unit = Operator(d3, np.eye(3), role="effect")
        for frame in (gross3, mub3):
            vals = represent_effect(frame, unit)
            assert np.abs(vals - 1.0).max() < 1e-10

    @given(seeds, seeds)
    def test_empirical_adequacy(self, seed_rho, seed_e):
        """sum_lam Tr(F_lam rho) Tr(E D_lam) = Tr(E rho)."""
        dim = Dimension(3)
        frame = gross_wigner_frame(dim)
        rho = random_state(dim, seed_rho)
        u = random_unitary(dim, seed_e).entries
        e_mat = u @ np.diag([0.9, 0.4, 0.1]) @ u.conj().T
        effect = Operator(dim, e_mat, role="effect")
        mu = represent_state(frame, rho)
        xi = represent_effect(frame, effect)
        lhs = (mu * xi).sum()
        rhs = np.trace(e_mat @ rho.entries)
        assert abs(lhs - rhs) < 1e-10


class TestRepresentChannel:
    def test_columns_sum_to_one(self, gross3, d3):
        mat = represent_channel(gross3, gross3, depolarizing_channel(d3, 0.3))
        assert mat.shape == (9, 9)
        assert np.abs(mat.sum(axis=0) - 1.0).max() < 1e-10

    def test_depolarizing_channel_matrix(self, gross3, d3):
        p = 0.4
        mat = represent_channel(gross3, gross3, depolarizing_channel(d3, p))
        expect = (1 - p) * np.eye(9) + p / 9.0
        assert np.abs(mat - expect).max() < 1e-10

    def test_identity_channel_is_identity_matrix(self, gross3, d3):
        mat = represent_channel(gross3, gross3, identity_channel(d3))
        assert np.abs(mat - np.eye(9)).max() < 1e-10

    def test_composition_is_matrix_product(self, gross3, d3):
        ch1 = unitary_channel(clifford_generators(d3)[0])
        ch2 = depolarizing_channel(d3, 0.25)
        g1 = represent_channel(gross3, gross3, ch1)
        g2 = represent_channel(gross3, gross3, ch2)
        composed = Channel(d3, tuple(k2 @ k1 for k2 in ch2.kraus for k1 in ch1.kraus))
        g21 = represent_channel(gross3, gross3, composed)
        assert np.abs(g21 - g2 @ g1).max() < 1e-10

    def test_channel_consistency_with_state_action(self, gross3, d3, strange):
        ch = depolarizing_channel(d3, 0.55)
        gamma = represent_channel(gross3, gross3, ch)
        mu = represent_state(gross3, strange)
        moved = represent_state(
            gross3, Operator(d3, ch.apply(strange.entries), role="state")
        )
        assert np.abs(gamma @ mu - moved).max() < 1e-10

    def test_trace_preservation_enforced(self, d3):
        with pytest.raises(ValueError):
            Channel(d3, (0.5 * np.eye(3, dtype=complex),))


class TestKDForms:
    @given(seeds)
    def test_marginals_are_born_probabilities(self, seed):
        dim = Dimension(3)
        rho = random_state(dim, seed)
        a = computational_basis(dim)
        b = fourier_basis(dim)
        vals = kd_matrix(rho, a, b).reshape(3, 3)
        born_a = np.real(np.einsum("xi,xy,yi->i", a.conj(), rho.entries, a))
        born_b = np.real(np.einsum("xj,xy,yj->j", b.conj(), rho.entries, b))
        assert np.abs(vals.sum(axis=1) - born_a).max() < 1e-10
        assert np.abs(vals.sum(axis=0) - born_b).max() < 1e-10
        assert abs(vals.sum() - 1.0) < 1e-10

    @given(seeds)
    def test_matrix_equals_sequential_equals_povm(self, seed):
        dim = Dimension(3)
        rho = random_state(dim, seed)
        a = computational_basis(dim)
        b = fourier_basis(dim)
        m = kd_matrix(rho, a, b)
        s = kd_sequential(rho, [a, b])
        povm_a = [np.outer(a[:, i], a[:, i].conj()) for i in range(3)]
        povm_b = [np.outer(b[:, j], b[:, j].conj()) for j in range(3)]
        g = kd_povm(rho, [povm_a, povm_b])
        assert np.abs(m - s).max() < 1e-12
        assert np.abs(m - g).max() < 1e-12

    def test_sequential_single_basis_is_born(self, strange, d3):
        a = computational_basis(d3)
        vals = kd_sequential(strange, [a])
        assert np.abs(vals.imag).max() < 1e-14
        assert np.abs(vals.real - np.diag(strange.entries).real).max() < 1e-12

    @pytest.mark.parametrize("d", [3, 5])
    @given(seeds)
    def test_sequential_three_bases_summed_over_one_is_kd_matrix(self, d, seed):
        """K(rho; A, B, C) summed over its last outcome is kd_matrix(rho, A, B)
        and over its middle outcome kd_matrix(rho, A, C), since each summed
        basis resolves the identity: on (a, b, a) and on random bases."""
        dim = Dimension(d)
        rho = random_state(dim, seed)
        a, b = computational_basis(dim), fourier_basis(dim)
        randoms = [random_unitary(dim, 3 * seed + k).entries for k in range(3)]
        for x, y, z in ((a, b, a), randoms):
            three = kd_sequential(rho, [x, y, z]).reshape(d, d, d)
            assert np.abs(three.sum(axis=2).reshape(-1) - kd_matrix(rho, x, y)).max() < 1e-12
            assert np.abs(three.sum(axis=1).reshape(-1) - kd_matrix(rho, x, z)).max() < 1e-12

    def test_povm_rejects_non_resolving_set(self, strange, d3):
        a = computational_basis(d3)
        bad = [np.outer(a[:, i], a[:, i].conj()) for i in range(2)]
        with pytest.raises(ValueError):
            kd_povm(strange, [bad])

    def test_povm_rejects_non_psd_element(self, strange, d3):
        e1 = np.diag([1.5, 1.0, 1.0]).astype(complex)
        e2 = np.diag([-0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            kd_povm(strange, [[e1, e2]])


class TestWitnessFunctionals:
    def test_penalty_zero_on_probability_vector(self):
        assert penalty(np.full(4, 0.25)) == 0.0

    def test_penalty_counts_negativity_and_imaginarity(self):
        vals = np.array([0.5, -0.25, 0.75 + 0.5j, -0.25j])
        assert abs(penalty(vals) - (0.5 + 0.25 + 0.25)) < 1e-14

    def test_penalty_of_strange_is_its_wigner_negativity(self, strange, gross3):
        # a real quasi-distribution summing to 1 has sum|x| = 1 + 2 * (negative mass)
        dist = represent_state(gross3, strange)
        excess = np.abs(dist).sum() - 1.0
        assert abs(penalty(dist) - excess / 2) < 1e-12
        assert abs(penalty(dist) - 1.0 / 3.0) < 1e-12

    def test_penalty_of_round_off_scale_entries(self):
        vals = np.array([1.0 + 1e-14, -1e-14, 1e-15j, 0.0])
        assert penalty(vals) == 1e-14 + 1e-15


class TestSubtheoryInGrossFrame:
    def test_stabilizer_states_are_classical(self, d3, gross3):
        for op in stabilizer_states(d3):
            assert penalty(represent_state(gross3, op)) < 1e-12

    def test_effects_are_classical(self, d3, gross3):
        for op in stabilizer_states(d3):
            eff = Operator(d3, op.entries, role="effect")
            assert penalty(represent_effect(gross3, eff)) < 1e-12

    def test_clifford_channels_are_classical(self, d3, gross3):
        for gate in clifford_generators(d3):
            dist = represent_channel(gross3, gross3, unitary_channel(gate))
            assert penalty(dist) < 1e-12

    def test_magic_states_are_not_classical(self, strange, norrell, gross3):
        assert penalty(represent_state(gross3, strange)) > 0.01
        assert penalty(represent_state(gross3, norrell)) > 0.01


def _subtheory(frame, opset) -> float:
    return subtheory_witness(frame.analysis_stack(), frame.synthesis_stack(), opset)


class TestWitnessScopes:
    def test_state_scope_is_magic_state_penalty(self, strange, d3, gross3):
        p = 0.2
        opset = standard_operational_set(strange, p)
        w = penalty(represent_state(gross3, opset.magic_state))
        direct = penalty(represent_state(gross3, depolarize(strange, p)))
        assert abs(w - direct) < 1e-14

    def test_subtheory_scope_dominates_state_scope(self, strange, d3, mub3):
        p = 0.1
        opset = standard_operational_set(strange, p)
        assert _subtheory(mub3, opset) >= penalty(represent_state(mub3, opset.magic_state))

    def test_gross_subtheory_witness_vanishes_at_full_noise(self, strange, d3, gross3):
        opset = standard_operational_set(strange, 1.0)
        assert _subtheory(gross3, opset) < 1e-10


def _per_item_witness(frame, opset) -> float:
    """The subtheory witness one representation at a time."""
    values = [penalty(represent_state(frame, rho)) for rho in opset.states]
    values += [penalty(represent_effect(frame, e)) for e in opset.effects]
    values += [penalty(represent_channel(frame, frame, ch)) for ch in opset.channels]
    return max(values)


class TestSubtheoryWitness:
    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("kind", ["haar", "mub", "gross"])
    def test_batched_equals_per_item_reference(self, d, p, kind):
        dim = Dimension(d)
        if kind == "mub":
            frame = canonical_mub_frame(dim)
        elif kind == "gross":
            frame = gross_wigner_frame(dim)
        else:
            seed = 100 * d + int(10 * p)
            a, b = random_unitary(dim, seed), random_unitary(dim, seed + 50)
            frame = kd_frame(dim, a.entries, b.entries)
        opset = standard_operational_set(random_state(dim, d), p)
        want = _per_item_witness(frame, opset)
        got = _subtheory(frame, opset)
        # relative to the value, which reaches ~100 on Haar frames
        assert abs(got - want) <= 1e-12 * max(1.0, want)


class TestMonotoneDecay:
    @pytest.mark.parametrize("frame_name", ["gross", "kd-mub"])
    def test_penalty_non_increasing_in_noise(self, frame_name, strange, d3):
        frame = gross_wigner_frame(d3) if frame_name == "gross" else None
        if frame is None:
            from magicnoise import canonical_mub_frame

            frame = canonical_mub_frame(d3)
        grid = np.linspace(0.0, 1.0, 101)
        vals = [
            penalty(represent_state(frame, depolarize(strange, p))) for p in grid
        ]
        diffs = np.diff(vals)
        assert diffs.max() <= 1e-12
