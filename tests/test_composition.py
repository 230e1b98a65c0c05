"""Two qudits: which one-qudit noncontextual responses survive composition.

The stabilizer polytope of one qudit has facets sum_b Pi_(b, k_b) - 1, one
per choice function k picking a state k_b from each of the d+1 stabilizer
bases b. The d^2 phase-point operators are the facets whose k is a point
of phase space. On two qudits the product of two phase-point operators is
a two-qudit phase-point operator, so its value on every stabilizer state is
d^2 times a Wigner value of 0 or 1/d^2 (Gross, J. Math. Phys. 47, 122107,
2006). Any other facet, paired with a phase point, goes negative on some
two-qudit stabilizer state, so only the Wigner model is a model of the
composite (Schmid, Du, Selby and Pusey, PRL 129, 120403, 2022).
"""

import itertools

import numpy as np
import pytest

from magicnoise import (
    Dimension,
    clifford_generators,
    phase_point_operators,
    stabilizer_states,
)

FACT_TOL = 1e-9
# A vector's key keeps this many decimals of each amplitude; the amplitudes
# of a two-qudit stabilizer state are 0 or unit phases over 1, sqrt(d) or d.
KEY_DECIMALS = 6


def _key(vec: np.ndarray) -> tuple:
    """vec up to its global phase: turned so that its first nonzero
    amplitude is real and positive, then rounded."""
    first = vec[np.flatnonzero(np.abs(vec) > 10.0 ** -KEY_DECIMALS)[0]]
    turned = vec * (abs(first) / first)
    scaled = np.concatenate([turned.real, turned.imag]) * 10.0 ** KEY_DECIMALS
    return tuple(np.rint(scaled).astype(int).tolist())


def two_qudit_stabilizer_states(dim: Dimension) -> np.ndarray:
    """The two-qudit stabilizer state vectors as a (n, d, d) array of
    amplitude matrices M[x, y] = <x, y|psi>: a breadth-first search from
    |00> under the local Clifford generators of either qudit and CSUM,
    |x, y> -> |x, x + y>."""
    d = dim.d
    x, y = np.divmod(np.arange(d * d), d)
    csum = np.zeros((d * d, d * d))
    csum[x * d + (x + y) % d, x * d + y] = 1.0
    eye = np.eye(d)
    gates = [np.kron(g.entries, eye) for g in clifford_generators(dim)]
    gates += [np.kron(eye, g.entries) for g in clifford_generators(dim)]
    gates.append(csum)
    start = np.zeros(d * d, dtype=complex)
    start[0] = 1.0
    seen = {_key(start)}
    found = [start]
    frontier = [start]
    while frontier:
        grown = []
        for vec in frontier:
            for gate in gates:
                new = gate @ vec
                key = _key(new)
                if key not in seen:
                    seen.add(key)
                    grown.append(new)
        found += grown
        frontier = grown
    return np.stack(found).reshape(-1, d, d)


def product_values(states: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Tr((L ⊗ R) |psi><psi|) for every state, L in left and R in right
    (stacks of d x d Hermitian operators), as a real (states, L, R) array:
    <psi|L ⊗ R|psi> = sum conj(M) (L M R^T) for the amplitude matrix M."""
    values = np.einsum(
        "sij,aik,bjl,skl->sab", states.conj(), left, right, states, optimize=True
    )
    assert np.abs(values.imag).max() < FACT_TOL
    return values.real


def facet(dim: Dimension, choice) -> np.ndarray:
    """sum_b Pi_(b, k_b) - 1 for the choice function k = choice."""
    projectors = stabilizer_states(dim)
    total = sum(projectors[b * dim.d + k].entries for b, k in enumerate(choice))
    return total - np.eye(dim.d)


def phase_point_choices(dim: Dimension) -> list[tuple]:
    """The choice function of each phase point A_u, in the order of
    phase_point_operators: k_b(u) is the state of basis b on which A_u
    reads 1 (it reads 0 on the others)."""
    d = dim.d
    projectors = np.stack([op.entries for op in stabilizer_states(dim)])
    points = np.stack([op.entries for op in phase_point_operators(dim)])
    reads = np.einsum("uij,sji->us", points, projectors).real.reshape(d * d, d + 1, d)
    assert np.all((np.abs(reads) < FACT_TOL) | (np.abs(reads - 1.0) < FACT_TOL))
    assert np.all(np.abs(reads.sum(axis=2) - 1.0) < FACT_TOL)
    return [tuple(int(k) for k in row) for row in reads.argmax(axis=2)]


@pytest.fixture(scope="module", params=[3, 5])
def composite(request):
    dim = Dimension(request.param)
    return dim, two_qudit_stabilizer_states(dim)


def test_stabilizer_state_count(composite):
    dim, states = composite
    d = dim.d
    assert len(states) == d * d * (d + 1) * (d * d + 1)
    assert np.abs(np.einsum("sij,sij->s", states.conj(), states) - 1.0).max() < FACT_TOL


def test_phase_points_are_facets(composite):
    dim, _ = composite
    for point, choice in zip(phase_point_operators(dim), phase_point_choices(dim)):
        assert np.abs(point.entries - facet(dim, choice)).max() < FACT_TOL


def test_phase_point_products_are_zero_or_one(composite):
    dim, states = composite
    points = np.stack([op.entries for op in phase_point_operators(dim)])
    values = product_values(states, points, points)
    zero_or_one = (np.abs(values) < FACT_TOL) | (np.abs(values - 1.0) < FACT_TOL)
    assert zero_or_one.all()


# every non-phase-point choice function at d = 3 (72 of the 81), a
# seeded sample of the 15,600 at d = 5
FACETS_CHECKED = {3: None, 5: 8}


def test_other_facets_go_negative_beside_a_phase_point(composite):
    dim, states = composite
    d = dim.d
    points = set(phase_point_choices(dim))
    others = [k for k in itertools.product(range(d), repeat=d + 1) if k not in points]
    assert len(others) == d ** (d + 1) - d * d
    if FACETS_CHECKED[d] is not None:
        rng = np.random.default_rng(0)
        others = [others[i] for i in rng.choice(len(others), FACETS_CHECKED[d], replace=False)]
    facets = np.stack([facet(dim, k) for k in others])
    phase_points = np.stack([op.entries for op in phase_point_operators(dim)])
    lowest = product_values(states, facets, phase_points).min(axis=0)
    assert np.abs(lowest + 1.0 / d).max() < FACT_TOL
