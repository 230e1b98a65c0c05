import dataclasses
import gc
import tracemalloc
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import linprog

from magicnoise import (
    Dimension,
    NoThresholdError,
    Operator,
    OptimizerConfig,
    SimplexError,
    ThresholdResult,
    canonical_mub_frame,
    crit_threshold,
    decode_frame,
    depolarize,
    fourier_gate,
    gross_representation_values,
    kd_frame,
    kd_threshold,
    magic_state,
    maximally_mixed,
    mub_frame_stabilizer_check,
    penalty,
    polytope_threshold,
    random_state,
    random_unitary,
    represent_effect,
    represent_state,
    stabilizer_polytope_membership,
    stabilizer_states,
    subtheory_floor,
    wigner_threshold,
)
from magicnoise import cli, optimize, thresholds
from magicnoise.thresholds import _stabilizer_projectors


def _crit_subtheory(rho: Operator) -> ThresholdResult:
    return crit_threshold(rho, scope="subtheory")


class TestThresholdResultType:
    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            ThresholdResult("magic", 0.5, {}, 1e-6)

    def test_rejects_out_of_range_p(self):
        with pytest.raises(ValueError):
            ThresholdResult("wigner", 1.5, {}, 1e-6)

    @pytest.mark.parametrize(
        "compute",
        [wigner_threshold, polytope_threshold, kd_threshold, crit_threshold, _crit_subtheory],
    )
    def test_equal_results_compare_true(self, norrell, compute):
        # a certificate holding an ndarray would make == raise instead
        first, second = compute(norrell), compute(norrell)
        assert (first == second) is True

    def test_fields(self):
        names = [field.name for field in dataclasses.fields(ThresholdResult)]
        assert names == ["kind", "p", "certificate", "tol"]


class TestWignerThreshold:
    def test_strange_value(self, strange):
        res = wigner_threshold(strange)
        assert res.kind == "wigner"
        assert abs(res.p - 0.75) < 1e-9
        assert abs(res.certificate["w_min"] + 1.0 / 3.0) < 1e-12
        assert res.certificate["negative_points"] == [[0, 0]]

    def test_norrell_value(self, norrell):
        res = wigner_threshold(norrell)
        assert abs(res.p - 0.6) < 1e-9
        assert abs(res.certificate["w_min"] + 1.0 / 6.0) < 1e-12

    def test_stabilizer_state_is_zero(self, d3):
        rho = magic_state("custom", d3, custom_vec=[1, 0, 0])
        assert wigner_threshold(rho).p == 0.0

    def test_maximally_mixed_is_zero(self, d3):
        assert wigner_threshold(maximally_mixed(d3)).p == 0.0

    def test_tol_is_recorded_not_used(self, strange):
        coarse, fine = wigner_threshold(strange, tol=2.0), wigner_threshold(strange)
        assert coarse.tol == 2.0 and fine.tol == 1e-6
        assert coarse.p == fine.p and abs(fine.p - 0.75) < 1e-12
        assert "grid_check" not in fine.certificate

    @pytest.mark.parametrize("tol", [0.0, -1e-3, float("nan")])
    def test_rejects_non_positive_tol(self, strange, tol):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            wigner_threshold(strange, tol=tol)

    def test_certificate_reverifies(self, strange, d3, gross3):
        res = wigner_threshold(strange)
        rep = np.array(res.certificate["representation_re"])
        rebuilt = np.array(
            [
                np.trace(
                    f.entries @ depolarize(strange, res.p).entries
                ).real
                for f in gross3.analysis
            ]
        )
        assert np.abs(rep - rebuilt).max() < 1e-9
        witness = np.abs(np.minimum(0.0, rebuilt)).sum()
        assert abs(witness - res.certificate["witness"]) < 1e-9
        assert res.certificate["witness"] <= 1e-9

    def test_representation_values_helper(self, strange):
        vals = gross_representation_values(strange)
        assert vals.shape == (9,)
        assert abs(vals.min() + 1.0 / 3.0) < 1e-12
        assert abs(vals.sum() - 1.0) < 1e-12


class TestPolytopeMembership:
    def test_maximally_mixed_uniform_certificate(self, d3):
        cert = stabilizer_polytope_membership(maximally_mixed(d3))
        assert cert is not None
        assert cert.coefficients.shape == (12,)
        assert cert.coefficients.min() >= -1e-10
        assert abs(cert.coefficients.sum() - 1.0) < 1e-8
        # reconstruction is what's guaranteed; coefficients may be any
        # convex decomposition degenerate with the uniform one
        projs = np.stack([op.entries for op in stabilizer_states(d3)])
        recon = np.tensordot(cert.coefficients, projs, axes=1)
        assert np.abs(recon - np.eye(3) / 3).max() < 1e-8

    def test_strange_state_is_outside(self, strange):
        assert stabilizer_polytope_membership(strange) is None

    def test_heavily_depolarized_strange_is_inside(self, strange):
        assert stabilizer_polytope_membership(depolarize(strange, 0.99)) is not None

    def test_boundary_flip(self, strange):
        assert stabilizer_polytope_membership(depolarize(strange, 0.74)) is None
        assert stabilizer_polytope_membership(depolarize(strange, 0.76)) is not None

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12))
    def test_stabilizer_mixtures_have_threshold_exactly_zero(self, seed, k):
        projs = [op.entries for op in stabilizer_states(Dimension(3))]
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(projs), size=k, replace=False)
        weights = rng.dirichlet(np.ones(k))
        rho = Operator(
            Dimension(3),
            sum(w * projs[i] for w, i in zip(weights, picks)),
            role="state",
        )
        assert polytope_threshold(rho).p == 0.0
        assert stabilizer_polytope_membership(rho) is not None

    def test_every_stabilizer_state_is_inside(self, d3):
        for op in stabilizer_states(d3):
            cert = stabilizer_polytope_membership(op)
            assert cert is not None
            assert cert.residual < 1e-8


class TestPolytopeThreshold:
    def test_strange_coincides_with_wigner(self, strange):
        res = polytope_threshold(strange, tol=1e-6)
        assert res.kind == "polytope"
        assert abs(res.p - 0.75) <= 2e-6
        assert res.certificate["coincidence_with_wigner"] == "CONFIRMED"

    def test_norrell_coincides_with_wigner(self, norrell):
        res = polytope_threshold(norrell, tol=1e-6)
        assert abs(res.p - 0.6) <= 2e-6
        assert res.certificate["coincidence_with_wigner"] == "CONFIRMED"

    def test_stabilizer_state_threshold_is_zero(self, d3):
        rho = magic_state("custom", d3, custom_vec=[0, 1, 0])
        res = polytope_threshold(rho, tol=1e-4)
        assert res.p <= 1e-4

    @pytest.mark.parametrize("seed", range(6))
    def test_containment_for_random_states(self, seed, d3):
        rho = random_state(d3, seed)
        tol = 1e-5
        p_stab = polytope_threshold(rho, tol=tol).p
        p_w = wigner_threshold(rho).p
        assert p_w <= p_stab + 2 * tol

    def test_certificate_reverifies(self, strange, d3):
        res = polytope_threshold(strange, tol=1e-6)
        c = np.array(res.certificate["coefficients"])
        projs = np.stack([op.entries for op in stabilizer_states(d3)])
        recon = np.tensordot(c, projs, axes=1)
        target = depolarize(strange, res.p).entries
        assert np.abs(recon - target).max() < 1e-8
        assert abs(c.sum() - 1.0) < 1e-8
        assert c.min() >= -1e-10

    def test_certificate_keys(self, strange):
        # the noise key of older reports repeated p
        assert set(polytope_threshold(strange).certificate) == {
            "coefficients", "residual", "witness", "p_wigner", "coincidence_with_wigner"
        }

    def test_tol_is_recorded_not_used(self, strange):
        coarse, fine = polytope_threshold(strange, tol=0.1), polytope_threshold(strange)
        assert coarse.tol == 0.1 and fine.tol == 1e-6
        assert coarse.p == fine.p == 0.75
        with pytest.raises(ValueError):
            polytope_threshold(strange, tol=0.0)

    @pytest.mark.parametrize("tol", [0.0, -1e-3, float("nan")])
    def test_rejects_non_positive_tol(self, strange, tol):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            polytope_threshold(strange, tol=tol)



def _highs_polytope_threshold(rho: np.ndarray) -> float:
    """min p over x >= 0, 0 <= p <= 1 with sum_k x_k S_k = (1-p) rho + p/d,
    sum_k x_k = 1, on the real and imaginary parts of every entry."""
    d = rho.shape[0]
    projs = np.stack([op.entries for op in stabilizer_states(Dimension(d))])
    n = len(projs)
    shift = np.eye(d) / d - rho
    a_eq = np.zeros((2 * d * d + 1, n + 1))
    a_eq[: d * d, :n] = projs.reshape(n, -1).real.T
    a_eq[d * d : -1, :n] = projs.reshape(n, -1).imag.T
    a_eq[: d * d, n] = -shift.real.ravel()
    a_eq[d * d : -1, n] = -shift.imag.ravel()
    a_eq[-1, :n] = 1.0
    b_eq = np.concatenate([rho.real.ravel(), rho.imag.ravel(), [1.0]])
    res = linprog(
        np.eye(n + 1)[n],
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0.0, None)] * n + [(0.0, 1.0)],
        method="highs",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    assert res.status == 0, res.message
    return float(res.x[n])


@st.composite
def noisy_states(draw, d):
    """A random pure state mixed with weight `mix` of a random full-rank
    state: small weights keep magic, large ones land inside the polytope."""
    seed = draw(st.integers(0, 2**32 - 1))
    mix = draw(st.sampled_from([0.0, 0.02, 0.1, 0.3, 0.9]))
    return _noisy_state(d, seed, mix)


def _noisy_state(d: int, seed: int, mix: float) -> Operator:
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    sigma = g @ g.conj().T
    rho = (1.0 - mix) * np.outer(psi, psi.conj()) + mix * sigma / np.trace(sigma).real
    return Operator(Dimension(d), 0.5 * (rho + rho.conj().T), role="state")


class TestPolytopeLPProperties:
    @pytest.mark.parametrize("d", [3, 5, 7])
    @given(data=st.data())
    def test_exact_threshold_with_two_sided_certificate(self, d, data):
        rho = data.draw(noisy_states(d))
        res = polytope_threshold(rho)
        assert abs(res.p - _highs_polytope_threshold(rho.entries)) <= 1e-9
        assert abs(res.p - _closed_form_polytope_threshold(rho.entries)) <= 1e-9
        assert wigner_threshold(rho).p <= res.p + 1e-12

        projs = np.stack([op.entries for op in stabilizer_states(rho.dim)])
        x = np.array(res.certificate["coefficients"])
        assert x.min() >= 0.0
        target = depolarize(rho, res.p).entries
        assert np.abs(np.tensordot(x, projs, axes=1) - target).max() <= 1e-9

        w = np.array(res.certificate["witness"]["re"]) + 1j * np.array(
            res.certificate["witness"]["im"]
        )
        assert np.einsum("kij,ji->k", projs, w).real.max() <= 1e-9
        assert abs(np.trace(w @ rho.entries).real - res.p) <= 1e-9
        # so W separates every less noisy state from the polytope
        for q in (0.0, 0.5 * res.p):
            assert np.trace(w @ depolarize(rho, q).entries).real >= res.p - q - 1e-9

    def test_round_off_pivot_is_refused(self):
        # at pivot 185 of this LP the entering column has an entry of
        # 1.2e-11, the round-off of a zero; pivoting on it leaves a
        # singular basis that cycles until MAX_PIVOTS
        rho = _noisy_state(7, 730295, 0.1)
        res = polytope_threshold(rho)
        assert abs(res.p - _highs_polytope_threshold(rho.entries)) <= 1e-9


def _closed_form_polytope_threshold(rho: np.ndarray) -> float:
    """p* = d|a| / (1 + d|a|), or 0 when a >= 0, with
    a = sum_b min_j <b_j|rho|b_j> - 1 over the d+1 mutually unbiased bases,
    built here from their textbook form: the computational basis, then
    |t,b> = sum_x w^(t x^2 / 2 + b x) |x> / sqrt(d) for t = 0 .. d-1."""
    d = rho.shape[0]
    x = np.arange(d).reshape(-1, 1)
    b = np.arange(d).reshape(1, -1)
    omega = np.exp(2j * np.pi / d)
    bases = [np.eye(d)] + [
        omega ** ((pow(2, -1, d) * t * x * x + b * x) % d) / np.sqrt(d) for t in range(d)
    ]
    v = [np.einsum("ij,ik,kj->j", basis.conj(), rho, basis).real for basis in bases]
    a = sum(row.min() for row in v) - 1.0
    return d * abs(a) / (1.0 + d * abs(a)) if a < 0 else 0.0


# |k> + eps |k+1>: the LP fails its certificate check at d = 3, runs out of
# pivots at d = 5 and meets a singular basis at d = 7
@pytest.mark.xfail(
    strict=True,
    raises=SimplexError,
    reason="the simplex LP fails within 1e-5 of a stabilizer state",
)
@pytest.mark.parametrize(
    "vec",
    [(1, 1e-6, 0), (1, 1e-7, 0, 0, 0), (0, 0, 0, 1, 1e-7, 0, 0)],
    ids=["d3", "d5", "d7"],
)
def test_near_stabilizer_pure_state_has_the_closed_form_threshold(vec):
    rho = magic_state("custom", Dimension(len(vec)), custom_vec=np.array(vec))
    want = _closed_form_polytope_threshold(rho.entries)
    assert want > 0.0
    assert abs(polytope_threshold(rho).p - want) <= 1e-12


class TestWignerComputedOncePerAnswer:
    """polytope, kd and crit (when the KD family wins) record the Wigner
    threshold without building a Wigner result."""

    @pytest.mark.parametrize("d", [3, 5, 7])
    @given(data=st.data())
    def test_without_wigner_threshold(self, d, data):
        rho = data.draw(noisy_states(d))
        want = wigner_threshold(rho).p
        # a magic state; at p_wigner == 0 gross ties with kd and wins crit
        assume(want > 0.0)
        with mock.patch.object(
            thresholds, "wigner_threshold", side_effect=AssertionError("called")
        ):
            poly = polytope_threshold(rho)
            kd = kd_threshold(rho)
            crit = crit_threshold(rho, scope="state")
        assert poly.certificate["p_wigner"] == want
        assert kd.certificate["p_wigner"] == want
        assert crit.certificate["per_family"]["gross"] == want
        assert crit.certificate["winner"]["p_wigner"] == want

    @pytest.mark.parametrize("scope", ["state", "subtheory"])
    def test_crit_runs_the_closed_form_once(self, strange, monkeypatch, scope):
        closed_form = thresholds._wigner_closed_form
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return closed_form(*args, **kwargs)

        monkeypatch.setattr(thresholds, "_wigner_closed_form", counted)
        res = crit_threshold(strange, scope=scope)
        assert len(calls) == 1
        assert res.certificate["per_family"]["gross"] == wigner_threshold(strange).p


# Certificate keys of the KD ordering check, which could never fire (p is
# exactly 0), and the recheck that always equalled the objective.
DELETED_KD_KEYS = {
    "gap_tolerance", "ordering_satisfied", "diagnostics", "witness_recheck"
}


class TestKDThreshold:
    def test_strange_state_scope_is_near_zero(self, strange):
        res = kd_threshold(strange, tol=1e-3)
        assert res.kind == "kd"
        assert res.p == 0.0
        assert res.certificate["objective"] <= 1e-9
        assert res.certificate["classification_tol"] == 1e-9
        assert not DELETED_KD_KEYS & set(res.certificate)

    def test_certificate_reverifies(self, strange):
        res = kd_threshold(strange, tol=1e-3)
        frame = decode_frame(strange.dim, np.array(res.certificate["frame_params"]))
        value = penalty(represent_state(frame, depolarize(strange, res.p)))
        assert abs(value - res.certificate["objective"]) < 1e-9
        assert not DELETED_KD_KEYS & set(res.certificate)

    def test_mixed_state_certificate_is_canonical_frame(self, d3):
        res = kd_threshold(maximally_mixed(d3), tol=1e-3)
        assert res.p <= 1e-3
        frame = decode_frame(d3, np.array(res.certificate["frame_params"]))
        canon = canonical_mub_frame(d3)
        for got, want in zip(frame.analysis, canon.analysis):
            assert np.abs(got.entries - want.entries).max() < 1e-9

    def test_defining_basis_state_is_zero_threshold(self, d3):
        rho = magic_state("custom", d3, custom_vec=[0, 0, 1])
        res = kd_threshold(rho, tol=1e-3)
        assert res.p <= 1e-3

    def test_subtheory_scope_has_no_threshold(self, strange):
        with pytest.raises(NoThresholdError):
            kd_threshold(strange, scope="subtheory", tol=0.25)

    def test_no_threshold_message_names_the_floor(self, strange):
        with pytest.raises(NoThresholdError, match=r"subtheory_floor\(3\) = 0\.2887"):
            kd_threshold(strange, scope="subtheory")

    def test_rejects_classification_tol_below_round_off(self, strange, monkeypatch):
        # the certificate's witness is round-off, far below the default 1e-9;
        # a tolerance below it would be an internal fault
        monkeypatch.setattr(thresholds, "CLASSIFICATION_TOL", 1e-300)
        with pytest.raises(RuntimeError, match="above classification_tol 1e-300"):
            kd_threshold(strange)

    def test_tol_is_recorded(self, strange):
        assert kd_threshold(strange, tol=1e-2).tol == 1e-2

    def test_rejects_unknown_scope(self, strange):
        with pytest.raises(ValueError):
            kd_threshold(strange, scope="all")

    @pytest.mark.parametrize("scope", ["state", "subtheory"])
    @pytest.mark.parametrize("tol", [0.0, -1e-3, float("nan")])
    def test_rejects_non_positive_tol(self, strange, scope, tol):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            kd_threshold(strange, scope=scope, tol=tol)


@pytest.mark.parametrize(
    "threshold", [wigner_threshold, polytope_threshold, kd_threshold, crit_threshold]
)
def test_rejects_non_finite_tol(strange, threshold):
    with pytest.raises(ValueError, match="tolerance must be finite, got inf"):
        threshold(strange, tol=float("inf"))


def _expm_unitary(d: int, params: np.ndarray) -> np.ndarray:
    """exp(iH) by scipy's expm, H laid out as in unitary_from_params."""
    h = np.diag(params[:d]).astype(complex)
    rows, cols = np.triu_indices(d, 1)
    h[rows, cols] = params[d::2] + 1j * params[d + 1 :: 2]
    h[cols, rows] = h[rows, cols].conj()
    return expm(1j * h)


class TestKDStateScopeProperties:
    @pytest.mark.parametrize("d", [3, 5, 7])
    @given(data=st.data())
    def test_exact_zero_with_eigenbasis_certificate(self, d, data):
        rho = data.draw(noisy_states(d))
        res = kd_threshold(rho)
        assert res.p == 0.0
        cert = res.certificate
        params = np.array(cert["frame_params"])
        a = _expm_unitary(d, params[: d * d])
        b = _expm_unitary(d, params[d * d :])
        # Q_ij = <b_j|a_i><a_i|rho|b_j>
        q = (b.conj().T @ a).T * (a.conj().T @ rho.entries @ b)
        pen = np.abs(q.imag).sum() + np.abs(np.minimum(q.real, 0.0)).sum()
        assert pen <= cert["classification_tol"]
        rep = np.array(cert["representation"]["re"]) + 1j * np.array(
            cert["representation"]["im"]
        )
        assert np.abs(rep - q.ravel()).max() <= 1e-9

    @pytest.mark.parametrize("d", [3, 5, 7])
    @given(data=st.data())
    def test_crit_state_scope_is_zero_below_wigner(self, d, data):
        rho = data.draw(noisy_states(d))
        res = crit_threshold(rho)
        assert res.p == 0.0 <= wigner_threshold(rho).p
        assert res.certificate["per_family"]["kd"] == 0.0


def _random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return g + g.conj().T


def _near_degenerate_unitary(rng, a: np.ndarray, eps: float) -> np.ndarray:
    """B = A . perm . phases . exp(i eps H): every basis vector of B sits
    within O(eps) of one of A's. H's off-diagonal entries have modulus in
    [0.5, 1], so every overlap stays above eps / 4 > OVERLAP_FLOOR."""
    d = a.shape[0]
    h = np.diag(rng.normal(size=d)).astype(complex)
    rows, cols = np.triu_indices(d, 1)
    h[rows, cols] = rng.uniform(0.5, 1.0, rows.size) * np.exp(
        2j * np.pi * rng.uniform(size=rows.size)
    )
    h[cols, rows] = h[rows, cols].conj()
    vals, vecs = np.linalg.eigh(h)
    turn = (vecs * np.exp(1j * eps * vals)) @ vecs.conj().T
    perm = np.eye(d)[:, rng.permutation(d)]
    phases = np.diag(np.exp(2j * np.pi * rng.uniform(size=d)))
    return a @ perm @ phases @ turn


@st.composite
def kd_frames(draw):
    """A KD frame at d = 3, 5 or 7: Haar bases; mutually unbiased bases
    (B = A F), where every overlap has |c|^2 = 1/d and the norm bound in
    subtheory_floor is tight; or bases eps apart, eps from 1e-1 down to
    1e-7."""
    d = draw(st.sampled_from([3, 5, 7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = Dimension(d)
    a = random_unitary(dim, int(rng.integers(2**32))).entries
    kind = draw(st.sampled_from(["haar", "mub", 1e-1, 1e-3, 1e-5, 1e-7]))
    if kind == "haar":
        b = random_unitary(dim, int(rng.integers(2**32))).entries
    elif kind == "mub":
        b = a @ fourier_gate(dim).entries
    else:
        b = _near_degenerate_unitary(rng, a, kind)
    return kd_frame(dim, a, b)


class TestSubtheoryFloor:
    def test_values(self):
        assert [round(subtheory_floor(d), 4) for d in (3, 5, 7)] == [
            0.2887,
            0.2582,
            0.2315,
        ]

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_stabilizer_projectors_are_a_2_design(self, d):
        # sum_k Tr(Pi_k K)^2 = Tr K^2 + (Tr K)^2 for every Hermitian K
        projs = _stabilizer_projectors(d)
        assert len(projs) == d * (d + 1)
        rng = np.random.default_rng(d)
        for _ in range(20):
            k = _random_hermitian(rng, d)
            lhs = (np.einsum("kij,ji->k", projs, k).real ** 2).sum()
            rhs = np.trace(k @ k).real + np.trace(k).real ** 2
            assert abs(lhs - rhs) <= 1e-10 * rhs

    @given(frame=kd_frames())
    def test_some_stabilizer_effect_has_imaginary_part_above_the_floor(self, frame):
        dim = frame.dim
        worst = max(
            np.abs(represent_effect(frame, Operator(dim, proj, role="effect")).imag).max()
            for proj in _stabilizer_projectors(dim.d)
        )
        assert worst >= subtheory_floor(dim.d)


class TestOneSearchPerCaller:
    """The subtheory scope's frame search is one Nelder-Mead run, whatever
    config the caller passes."""

    MESSAGE = "best found at p = 1: 16.3923"

    @pytest.fixture
    def runs(self, monkeypatch):
        calls = []
        real = optimize.nelder_mead

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(optimize, "nelder_mead", counted)
        return calls

    @pytest.mark.parametrize(
        "config", [None, OptimizerConfig(restarts=2), OptimizerConfig(restarts=32)]
    )
    def test_kd_threshold(self, strange, runs, config):
        with pytest.raises(NoThresholdError) as info:
            kd_threshold(strange, config=config, scope="subtheory")
        assert len(runs) == 1
        assert str(info.value).endswith(f"({self.MESSAGE})")

    @pytest.mark.parametrize("config", [None, OptimizerConfig(restarts=32)])
    def test_crit_threshold(self, strange, runs, config):
        res = crit_threshold(strange, config=config, scope="subtheory")
        assert len(runs) == 1
        assert res.certificate["family"] == "gross"

    def test_cli(self, runs, capsys):
        code = cli.main(["threshold", "--method", "kd", "--scope", "subtheory"])
        assert code == 2
        assert len(runs) == 1
        assert capsys.readouterr().err.endswith(f"({self.MESSAGE})\n")


class TestCritThreshold:
    def test_takes_minimum_family(self, strange):
        res = crit_threshold(strange, tol=1e-3)
        assert res.kind == "crit"
        # the winning state-scope KD value is exact, and no search ran
        assert res.certificate["family"] == "kd"
        per = res.certificate["per_family"]
        assert abs(per["gross"] - 0.75) < 1e-9
        assert res.p == per["kd"]
        assert res.p <= per["gross"]

    def test_gross_only_equals_wigner(self, strange):
        # in scope subtheory gross is the only family with a threshold
        res = crit_threshold(strange, scope="subtheory")
        wigner = wigner_threshold(strange)
        assert res.p == wigner.p
        assert res.certificate["family"] == "gross"
        assert res.certificate["per_family"] == {"gross": wigner.p, "kd": None}
        assert res.certificate["winner"] == wigner.certificate

    def test_tie_goes_to_gross(self, d3):
        # a stabilizer state: both families give exactly 0
        res = crit_threshold(magic_state("custom", d3, custom_vec=[1, 0, 0]))
        assert res.p == 0.0
        assert res.certificate["family"] == "gross"
        assert res.certificate["per_family"] == {"gross": 0.0, "kd": 0.0}

    @pytest.mark.parametrize("scope", ["state", "subtheory"])
    @pytest.mark.parametrize("tol", [0.0, -1e-3, float("nan")])
    def test_rejects_non_positive_tol(self, strange, scope, tol):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            crit_threshold(strange, scope=scope, tol=tol)


class TestMubFrameStabilizerCheck:
    def test_qutrit_report(self, d3):
        report = mub_frame_stabilizer_check(d3)
        assert len(report["per_state"]) == 12
        assert report["defining_max_penalty"] < 1e-12
        assert report["verdict"] in ("CONFIRMED", "REFUTED")
        defining = [e for e in report["per_state"] if e["defining_basis"]]
        others = [e for e in report["per_state"] if not e["defining_basis"]]
        assert len(defining) == 6 and len(others) == 6
        assert report["classification_tol"] == 1e-12

    def test_qutrit_beyond_defining_bases_penalty(self, d3):
        report = mub_frame_stabilizer_check(d3)
        # the other six stabilizer states carry imaginary weight 2/sqrt(3)
        assert abs(report["beyond_defining_max_penalty"] - 2.0 / np.sqrt(3.0)) < 1e-9
        assert report["verdict"] == "REFUTED"

    @pytest.mark.parametrize("d", [5, 7])
    def test_larger_dimensions_defining_bases_still_classical(self, d):
        report = mub_frame_stabilizer_check(Dimension(d))
        assert report["defining_max_penalty"] < 1e-12
        assert len(report["per_state"]) == d * (d + 1)


def _bytes_per_result(compute, states) -> float:
    """tracemalloc bytes per result held, after a first call on states[0]
    has filled the per-d caches."""
    compute(states[0])
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        held = [compute(rho) for rho in states]
        gc.collect()
        used = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return used / len(held)


def _unpacked_vectors(value, path: str = "certificate"):
    """Paths of the lists and tuples of Python floats, and of the ndarrays,
    anywhere in value."""
    if isinstance(value, np.ndarray):
        yield path
    elif isinstance(value, dict):
        for key, entry in value.items():
            yield from _unpacked_vectors(entry, f"{path}[{key!r}]")
    elif isinstance(value, (list, tuple)):
        if any(isinstance(entry, float) for entry in value):
            yield path
        for k, entry in enumerate(value):
            yield from _unpacked_vectors(entry, f"{path}[{k}]")


class TestResultStorage:
    """A kept result holds its numbers as C doubles: batch callers keep one
    result per state, so its size sets their memory."""

    # tracemalloc bytes per held result, about 15% above the measured
    # 1,635 / 2,411 / 3,361 (polytope, d = 3 / 5 / 7), 2,191 / 2,959 (kd,
    # d = 5 / 7) and 1,694 (crit), Python 3.11, NumPy 2.4; with a 21-point
    # scan trace and Python floats in lists and tuples they were 5,115 /
    # 6,835 / 9,407 (polytope) and 4,514 (crit)
    POLYTOPE_CEILING = {3: 1_880, 5: 2_770, 7: 3_870}
    CRIT_CEILING = 1_950
    KD_CEILING = {5: 2_520, 7: 3_400}

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_bytes_per_polytope_result(self, d):
        states = [_noisy_state(d, seed, 0.05) for seed in range(1, 5)]
        assert _bytes_per_result(polytope_threshold, states) <= self.POLYTOPE_CEILING[d]

    @pytest.mark.parametrize("d", [5, 7])
    def test_bytes_per_kd_result(self, d):
        states = [_noisy_state(d, seed, 0.05) for seed in range(1, 5)]
        assert _bytes_per_result(kd_threshold, states) <= self.KD_CEILING[d]

    def test_bytes_per_crit_result(self, strange, norrell):
        states = [strange, norrell, _noisy_state(3, 1, 0.05)]
        assert _bytes_per_result(_crit_subtheory, states) <= self.CRIT_CEILING

    @pytest.mark.parametrize(
        "compute",
        [wigner_threshold, polytope_threshold, kd_threshold, crit_threshold, _crit_subtheory],
    )
    def test_no_certificate_vector_of_python_floats(self, strange, compute):
        for rho in (strange, _noisy_state(5, 5, 0.05)):
            res = compute(rho)
            assert list(_unpacked_vectors(res.certificate)) == [], res.kind

    def test_vectors_read_back_as_arrays(self, strange):
        cert = polytope_threshold(strange).certificate
        assert isinstance(cert["coefficients"], array)
        assert np.asarray(cert["coefficients"]).shape == (12,)
        re = cert["witness"]["re"]
        assert isinstance(re, tuple) and all(isinstance(row, array) for row in re)
        assert np.asarray(re).shape == np.asarray(cert["witness"]["im"]).shape == (3, 3)
        rep = wigner_threshold(strange).certificate["representation_re"]
        assert isinstance(rep, array) and np.asarray(rep).shape == (9,)
