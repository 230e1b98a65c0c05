import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from magicnoise import (
    Dimension,
    Operator,
    SUPPORTED_DIMENSIONS,
    UnsupportedDimensionError,
    clifford_generators,
    computational_basis,
    depolarize,
    fourier_basis,
    fourier_gate,
    magic_state,
    maximally_mixed,
    quadratic_phase_gate,
    random_state,
    random_unitary,
    stabilizer_bases,
    stabilizer_states,
    weyl_operator,
)

dims = st.sampled_from(SUPPORTED_DIMENSIONS)


@st.composite
def dim_and_indices(draw, count=1):
    """A dimension and count Weyl indices (p, q) in Z_d^2."""
    d = draw(dims)
    idx = [
        (draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1)))
        for _ in range(count)
    ]
    return (Dimension(d), *idx)


class TestDimension:
    @pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
    def test_supported(self, d):
        dim = Dimension(d)
        assert dim.d == d
        assert abs(dim.omega ** d - 1) < 1e-12
        assert (2 * dim.inv2) % d == 1

    @pytest.mark.parametrize("d", [1, 2, 4, 6, 9, 11, -3, 0])
    def test_unsupported(self, d):
        with pytest.raises(UnsupportedDimensionError):
            Dimension(d)

    @pytest.mark.parametrize("d", [np.int64(3), np.int32(5), np.uint8(7)])
    def test_numpy_integers_are_stored_as_int(self, d):
        dim = Dimension(d)
        assert type(dim.d) is int and dim.d == d
        assert dim == Dimension(int(d)) and hash(dim) == hash(Dimension(int(d)))

    @pytest.mark.parametrize("d", [True, np.True_, 3.0, np.float64(5.0), "3", None])
    def test_non_integers_are_unsupported(self, d):
        with pytest.raises(UnsupportedDimensionError, match="dimension must be one of"):
            Dimension(d)


class TestOperatorRoles:
    def test_state_accepts_density_matrix(self, d3):
        op = Operator(d3, np.eye(3) / 3, role="state")
        assert op.role == "state"
        assert not op.entries.flags.writeable

    def test_state_rejects_non_hermitian(self, d3):
        m = np.eye(3, dtype=complex) / 3
        m = m.copy()
        m[0, 1] = 0.2
        with pytest.raises(ValueError, match="Hermitian"):
            Operator(d3, m, role="state")

    def test_state_rejects_wrong_trace(self, d3):
        with pytest.raises(ValueError, match="trace"):
            Operator(d3, np.eye(3), role="state")

    def test_state_rejects_negative_eigenvalue(self, d3):
        m = np.diag([1.2, -0.1, -0.1])
        with pytest.raises(ValueError, match="negative eigenvalue"):
            Operator(d3, m, role="state")

    def test_unitary_rejects_non_unitary(self, d3):
        with pytest.raises(ValueError, match="unitary"):
            Operator(d3, np.ones((3, 3)), role="unitary")

    def test_effect_rejects_spectrum_above_one(self, d3):
        with pytest.raises(ValueError, match="spectrum"):
            Operator(d3, 2 * np.eye(3), role="effect")

    @pytest.mark.parametrize("role", ["state", "effect", "unitary"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, np.inf)])
    def test_checked_roles_reject_non_finite_entries(self, d3, role, value):
        m = np.eye(3, dtype=complex) / 3
        m[1, 1] = value
        with pytest.raises(ValueError, match=f"{role} operator has non-finite entries"):
            Operator(d3, m, role=role)

    def test_rejects_bad_shape(self, d3):
        with pytest.raises(ValueError, match="3x3"):
            Operator(d3, np.eye(4))

    def test_rejects_unknown_role(self, d3):
        with pytest.raises(ValueError, match="role"):
            Operator(d3, np.eye(3), role="projector")


class TestWeylAlgebra:
    @given(dim_and_indices(count=2))
    def test_composition_law(self, data):
        dim, (p1, q1), (p2, q2) = data
        lhs = weyl_operator(dim, p1, q1).entries @ weyl_operator(dim, p2, q2).entries
        phase = dim.omega ** ((-q1 * p2) % dim.d)
        rhs = phase * weyl_operator(dim, p1 + p2, q1 + q2).entries
        assert np.abs(lhs - rhs).max() < 1e-12

    @given(dim_and_indices())
    def test_dagger_relation(self, data):
        dim, (p, q) = data
        dag = weyl_operator(dim, p, q).entries.conj().T
        phase = dim.omega ** ((-p * q) % dim.d)
        expect = phase * weyl_operator(dim, -p, -q).entries
        assert np.abs(dag - expect).max() < 1e-12

    @given(dim_and_indices())
    def test_order_divides_d(self, data):
        dim, (p, q) = data
        mat = weyl_operator(dim, p, q).entries
        power = np.linalg.matrix_power(mat, dim.d)
        assert np.abs(power - np.eye(dim.d)).max() < 1e-10

    @pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
    def test_identity_index(self, d):
        dim = Dimension(d)
        assert np.abs(
            weyl_operator(dim, 0, 0).entries - np.eye(d)
        ).max() == 0

    @given(dim_and_indices())
    def test_index_reduction(self, data):
        """W_(p+d,q), W_(p,q+d), W_(-p,q) and W_(p-2d,-q) equal their reduced
        forms exactly."""
        dim, (p, q) = data
        d = dim.d
        for a, b in ((p + d, q), (p, q + d), (-p, q), (p - 2 * d, -q)):
            assert np.array_equal(
                weyl_operator(dim, a, b).entries,
                weyl_operator(dim, a % d, b % d).entries,
            )

    def test_traceless_except_identity(self, d3):
        for p in range(3):
            for q in range(3):
                tr = np.trace(weyl_operator(d3, p, q).entries)
                if p == q == 0:
                    assert abs(tr - 3) < 1e-12
                else:
                    assert abs(tr) < 1e-12


def _match_weyl_up_to_phase(dim, mat):
    """Return (index, phase) with mat = phase * W_index, or None."""
    for p in range(dim.d):
        for q in range(dim.d):
            w = weyl_operator(dim, p, q).entries
            prod = mat @ w.conj().T
            if np.abs(prod - prod[0, 0] * np.eye(dim.d)).max() < 1e-10:
                return (p, q), prod[0, 0]
    return None


class TestCliffordGenerators:
    @pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
    def test_conjugation_stays_in_weyl_group(self, d):
        dim = Dimension(d)
        for gate in clifford_generators(dim):
            g = gate.entries
            for p in range(d):
                for q in range(d):
                    conj = g @ weyl_operator(dim, p, q).entries @ g.conj().T
                    found = _match_weyl_up_to_phase(dim, conj)
                    assert found is not None, (p, q)
                    _, phase = found
                    assert abs(abs(phase) - 1.0) < 1e-10

    @pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
    def test_fourier_exchanges_shift_and_clock(self, d):
        dim = Dimension(d)
        f = fourier_gate(dim).entries
        x = weyl_operator(dim, 0, 1).entries
        z = weyl_operator(dim, 1, 0).entries
        assert np.abs(f @ x @ f.conj().T - z).max() < 1e-12

    @pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
    def test_fourier_gate_is_the_fourier_stabilizer_basis(self, d):
        dim = Dimension(d)
        f = fourier_gate(dim).entries
        fourier = stabilizer_bases(dim)[1]
        assert f.dtype == fourier.dtype and f.tobytes() == fourier.tobytes()
        assert np.abs(f.conj().T @ f - np.eye(d)).max() <= 1e-15

    @pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
    def test_quadratic_phase_is_diagonal_unitary(self, d):
        dim = Dimension(d)
        s = quadratic_phase_gate(dim).entries
        assert np.abs(s - np.diag(np.diag(s))).max() == 0
        assert np.abs(np.abs(np.diag(s)) - 1.0).max() < 1e-12


class TestStabilizerStates:
    @pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
    def test_count_and_shape(self, d):
        dim = Dimension(d)
        bases = stabilizer_bases(dim)
        states = stabilizer_states(dim)
        assert len(bases) == d + 1
        assert len(states) == d * (d + 1)
        # built once per d: the same read-only objects on every call
        assert stabilizer_bases(Dimension(d)) is bases
        assert stabilizer_states(Dimension(d)) is states
        for basis in bases:
            assert basis.shape == (d, d) and not basis.flags.writeable
        for k, op in enumerate(states):
            assert op.role == "state"
            # state k is the projector onto column k % d of basis k // d
            v = bases[k // d][:, k % d]
            assert np.abs(op.entries - np.outer(v, v.conj())).max() == 0
            # rank-1 projector
            e = np.linalg.eigvalsh(op.entries)
            assert abs(e[-1] - 1.0) < 1e-10 and np.abs(e[:-1]).max() < 1e-10

    @pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
    def test_bases_are_mutually_unbiased(self, d):
        bases = stabilizer_bases(Dimension(d))
        n = len(bases)
        for i in range(n):
            bi = bases[i]
            assert np.abs(bi.conj().T @ bi - np.eye(d)).max() < 1e-12
            for j in range(i + 1, n):
                ov = np.abs(bases[j].conj().T @ bi) ** 2
                assert np.abs(ov - 1.0 / d).max() < 1e-12

    @pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
    def test_each_basis_diagonalizes_its_weyl_operator(self, d):
        dim = Dimension(d)
        # basis 0 is Z's eigenbasis; basis a + 1 is that of Z^a X = W_(a,1)
        for k, basis in enumerate(stabilizer_bases(dim)):
            idx = (1, 0) if k == 0 else (k - 1, 1)
            w = weyl_operator(dim, *idx).entries
            moved = w @ basis
            # each column must be an eigenvector: w b = lambda b, |lambda| = 1
            lam = np.einsum("ij,ij->j", basis.conj(), moved)
            assert np.abs(np.abs(lam) - 1.0).max() < 1e-10
            assert np.abs(moved - basis * lam).max() < 1e-10

    def test_first_two_bases_are_computational_and_fourier(self, d3):
        comp, four = stabilizer_bases(d3)[:2]
        assert np.array_equal(comp, np.eye(3))
        # computational_basis and fourier_basis are writable copies of both
        for copy, basis in ((computational_basis(d3), comp), (fourier_basis(d3), four)):
            assert np.array_equal(copy, basis)
            assert copy.flags.writeable and not np.shares_memory(copy, basis)


class TestMagicStates:
    def test_strange_matrix(self, strange):
        expect = np.zeros((3, 3))
        expect[1, 1] = expect[2, 2] = 0.5
        expect[1, 2] = expect[2, 1] = -0.5
        assert np.abs(strange.entries - expect).max() < 1e-12

    def test_norrell_matrix(self, norrell):
        v = np.array([-1.0, 2.0, -1.0]) / np.sqrt(6.0)
        expect = np.outer(v, v)
        assert np.abs(norrell.entries - expect).max() < 1e-12

    @pytest.mark.parametrize("kind", ["strange", "norrell"])
    def test_named_states_are_qutrit_only(self, kind):
        with pytest.raises(UnsupportedDimensionError):
            magic_state(kind, Dimension(5))

    def test_custom_normalizes(self, d3):
        op = magic_state("custom", d3, custom_vec=[2, 0, 0])
        expect = np.zeros((3, 3))
        expect[0, 0] = 1.0
        assert np.abs(op.entries - expect).max() < 1e-12

    def test_custom_requires_vector(self, d3):
        with pytest.raises(ValueError):
            magic_state("custom", d3)

    def test_custom_rejects_zero_vector(self, d3):
        with pytest.raises(ValueError):
            magic_state("custom", d3, custom_vec=[0, 0, 0])

    @pytest.mark.parametrize(
        "vec", [[1, np.nan, 0], [1, 0, np.inf], [1, 1j * np.nan, 0], [1, 1e308, 1e308]]
    )
    def test_custom_rejects_non_finite_vector_and_norm(self, d3, vec):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite components and norm"):
                magic_state("custom", d3, custom_vec=vec)

    def test_named_kind_rejects_vector(self, d3):
        with pytest.raises(ValueError):
            magic_state("strange", d3, custom_vec=[1, 0, 0])

    def test_unknown_kind(self, d3):
        with pytest.raises(ValueError):
            magic_state("stranger", d3)


class TestNoiseAndSampling:
    def test_depolarize_endpoints(self, strange, d3):
        assert np.abs(depolarize(strange, 0.0).entries - strange.entries).max() == 0
        assert (
            np.abs(depolarize(strange, 1.0).entries - maximally_mixed(d3).entries).max()
            < 1e-15
        )

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_depolarize_composes_affinely(self, p, q):
        rho = magic_state("strange", Dimension(3))
        once = depolarize(depolarize(rho, p), q)
        combined = depolarize(rho, p + q - p * q)
        assert np.abs(once.entries - combined.entries).max() < 1e-12

    @pytest.mark.parametrize("p", [-0.1, 1.1, np.nan])
    def test_depolarize_rejects_bad_noise(self, strange, p):
        with pytest.raises(ValueError):
            depolarize(strange, p)

    def test_random_state_is_deterministic_and_valid(self, d3):
        a = random_state(d3, seed=7)
        b = random_state(d3, seed=7)
        c = random_state(d3, seed=8)
        assert np.abs(a.entries - b.entries).max() == 0
        assert np.abs(a.entries - c.entries).max() > 1e-3
        assert a.role == "state"

    def test_random_unitary_is_deterministic_and_unitary(self, d3):
        u = random_unitary(d3, seed=11)
        v = random_unitary(d3, seed=11)
        assert np.abs(u.entries - v.entries).max() == 0
        assert u.role == "unitary"
