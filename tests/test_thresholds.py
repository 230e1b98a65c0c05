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
    PolytopeCertificate,
    ThresholdResult,
    Tolerances,
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
    omega,
    polytope_threshold,
    random_state,
    random_unitary,
    represent_effect,
    stabilizer_polytope_membership,
    stabilizer_states,
    standard_operational_set,
    subtheory_floor,
    wigner_threshold,
)
from magicnoise import thresholds
from magicnoise.thresholds import (
    _polytope_scan,
    _stabilizer_projectors,
    _trace_points,
    _wigner_scan,
)

# one restart: the subtheory search then runs from the Fourier frame only
FAST = OptimizerConfig(restarts=1)


class TestThresholdResultType:
    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            ThresholdResult("magic", 0.5, {}, (), 1e-6)

    def test_rejects_out_of_range_p(self):
        with pytest.raises(ValueError):
            ThresholdResult("wigner", 1.5, {}, (), 1e-6)


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

    def test_grid_check_agrees(self, strange):
        res = wigner_threshold(strange)
        assert abs(res.certificate["grid_check"] - res.p) <= res.tol + 1e-9

    def test_scan_trace_is_sorted_and_nonincreasing(self, strange):
        res = wigner_threshold(strange)
        ps = [p for p, _ in res.scan]
        ws = [w for _, w in res.scan]
        assert ps == sorted(ps)
        assert all(b <= a + 1e-12 for a, b in zip(ws, ws[1:]))
        assert any(abs(p - res.p) < 1e-12 for p in ps)

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


def test_trace_points_match_np_unique():
    grid = np.linspace(0.0, 1.0, 21)
    ps = np.concatenate([grid, np.random.default_rng(5).random(2000), [1e-300]])
    for p in ps:
        assert np.array_equal(_trace_points(p), np.unique(np.append(grid, p)))


class TestPolytopeMembership:
    def test_maximally_mixed_uniform_certificate(self, d3):
        cert = stabilizer_polytope_membership(maximally_mixed(d3))
        assert cert is not None
        assert cert.coefficients.shape == (12,)
        assert cert.coefficients.min() >= -1e-10
        assert abs(cert.coefficients.sum() - 1.0) < 1e-8
        # reconstruction is what's guaranteed; coefficients may be any
        # convex decomposition degenerate with the uniform one
        projs = np.stack([op.entries for op in stabilizer_states(d3).states])
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
        projs = [op.entries for op in stabilizer_states(Dimension(3)).states]
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
        for op in stabilizer_states(d3).states:
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
        projs = np.stack([op.entries for op in stabilizer_states(d3).states])
        recon = np.tensordot(c, projs, axes=1)
        target = depolarize(strange, res.p).entries
        assert np.abs(recon - target).max() < 1e-8
        assert abs(c.sum() - 1.0) < 1e-8
        assert c.min() >= -1e-10

    def test_tol_is_recorded_not_used(self, strange):
        coarse, fine = polytope_threshold(strange, tol=0.1), polytope_threshold(strange)
        assert coarse.tol == 0.1 and fine.tol == 1e-6
        assert coarse.p == fine.p == 0.75
        with pytest.raises(ValueError):
            polytope_threshold(strange, tol=0.0)

    def test_scan_is_the_noise_still_needed(self, strange):
        res = polytope_threshold(strange, tol=1e-3)
        ps = [q for q, _ in res.scan]
        assert ps == sorted(ps) and ps[0] == 0.0 and ps[-1] == 1.0
        assert res.p in ps
        for q, need in res.scan:
            if q < res.p:
                # depolarizing rho_q by need lands exactly on rho_{p*}
                assert abs(q + need * (1.0 - q) - res.p) < 1e-12
            else:
                assert need == 0.0


def _highs_polytope_threshold(rho: np.ndarray) -> float:
    """min p over x >= 0, 0 <= p <= 1 with sum_k x_k S_k = (1-p) rho + p/d,
    sum_k x_k = 1, on the real and imaginary parts of every entry."""
    d = rho.shape[0]
    projs = np.stack([op.entries for op in stabilizer_states(Dimension(d)).states])
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
        assert wigner_threshold(rho).p <= res.p + 1e-12

        projs = np.stack([op.entries for op in stabilizer_states(rho.dim).states])
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


def _bits(scan: tuple) -> list:
    """A scan's values down to the bit (and the sign of zero)."""
    return [(float.hex(p), float.hex(w)) for p, w in scan]


def _wigner_scan_loop(w: np.ndarray, d2: int, p_star: float) -> tuple:
    """Reference: one evaluation per trace point."""
    return tuple(
        (float(p), float(np.abs(np.minimum(0.0, (1.0 - p) * w + p / d2)).sum()))
        for p in _trace_points(p_star)
    )


def _polytope_scan_loop(p_star: float) -> tuple:
    """Reference: one evaluation per trace point."""
    return tuple(
        (float(q), float(max(0.0, (p_star - q) / (1.0 - q))) if q < 1.0 else 0.0)
        for q in _trace_points(p_star)
    )


class TestVectorizedScans:
    @pytest.mark.parametrize("d", [3, 5, 7])
    @given(data=st.data())
    def test_match_the_per_point_loop(self, d, data):
        rho = data.draw(noisy_states(d))
        w = gross_representation_values(rho)
        wig, poly = wigner_threshold(rho), polytope_threshold(rho)
        assert _bits(wig.scan) == _bits(_wigner_scan_loop(w, d * d, wig.p))
        assert _bits(poly.scan) == _bits(_polytope_scan_loop(poly.p))

    def test_stabilizer_state_has_p_star_zero(self, d3):
        rho = magic_state("custom", d3, custom_vec=[1, 0, 0])
        wig, poly = wigner_threshold(rho), polytope_threshold(rho)
        assert wig.p == poly.p == 0.0
        w = gross_representation_values(rho)
        assert _bits(wig.scan) == _bits(_wigner_scan_loop(w, 9, 0.0))
        assert _bits(poly.scan) == _bits(_polytope_scan_loop(0.0))
        assert len(wig.scan) == len(poly.scan) == 21

    @pytest.mark.parametrize("k", [0, 1, 7, 15, 20])
    def test_p_star_on_a_grid_point(self, strange, k):
        p_star = float(np.linspace(0.0, 1.0, 21)[k])
        w = gross_representation_values(strange)
        scan = _wigner_scan(w, 9, p_star)
        assert len(scan) == 21
        assert _bits(scan) == _bits(_wigner_scan_loop(w, 9, p_star))
        assert _bits(_polytope_scan(p_star)) == _bits(_polytope_scan_loop(p_star))


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
        res = crit_threshold(strange, config=FAST, scope=scope)
        assert len(calls) == 1
        assert res.certificate["per_family"]["gross"] == wigner_threshold(strange).p


class TestKDThreshold:
    def test_strange_state_scope_is_near_zero(self, strange):
        res = kd_threshold(strange, config=FAST, tol=1e-3)
        assert res.kind == "kd"
        assert res.p == 0.0
        assert res.certificate["objective"] <= 1e-9
        assert res.certificate["classification_tol"] == 1e-9
        assert res.certificate["ordering_satisfied"]
        assert res.certificate["diagnostics"] == []

    def test_exactly_one_ordering_outcome(self, strange):
        res = kd_threshold(strange, config=FAST, tol=1e-3)
        gap = "POTENTIAL_GAP" in res.certificate["diagnostics"]
        assert res.certificate["ordering_satisfied"] != gap

    def test_certificate_reverifies(self, strange):
        res = kd_threshold(strange, config=FAST, tol=1e-3)
        frame = decode_frame(strange.dim, np.array(res.certificate["frame_params"]))
        opset = standard_operational_set(strange, res.p)
        value = omega(res.p, frame, opset, scope="state")
        assert abs(value - res.certificate["objective"]) < 1e-9
        assert abs(value - res.certificate["witness_recheck"]) < 1e-9

    def test_mixed_state_certificate_is_canonical_frame(self, d3):
        res = kd_threshold(maximally_mixed(d3), config=FAST, tol=1e-3)
        assert res.p <= 1e-3
        frame = decode_frame(d3, np.array(res.certificate["frame_params"]))
        canon = canonical_mub_frame(d3)
        for got, want in zip(frame.analysis, canon.analysis):
            assert np.abs(got.entries - want.entries).max() < 1e-9

    def test_defining_basis_state_is_zero_threshold(self, d3):
        rho = magic_state("custom", d3, custom_vec=[0, 0, 1])
        res = kd_threshold(rho, config=FAST, tol=1e-3)
        assert res.p <= 1e-3

    def test_subtheory_scope_has_no_threshold(self, strange):
        with pytest.raises(NoThresholdError):
            kd_threshold(strange, config=FAST, scope="subtheory", tol=0.25)

    def test_no_threshold_message_names_the_floor(self, strange):
        with pytest.raises(NoThresholdError, match=r"subtheory_floor\(3\) = 0\.2887"):
            kd_threshold(strange, config=FAST, scope="subtheory")

    def test_rejects_classification_tol_below_round_off(self, strange, monkeypatch):
        # the certificate's witness is round-off, far below the default 1e-9;
        # a tolerance below it would be an internal fault
        tight = Tolerances(classification=1e-300)
        monkeypatch.setattr(thresholds, "DEFAULT_TOLERANCES", tight)
        with pytest.raises(RuntimeError, match="above classification_tol 1e-300"):
            kd_threshold(strange)

    def test_scan_matches_bisection_budget(self, strange):
        res = kd_threshold(strange, config=FAST, tol=1e-2)
        # no bisection in scope state: the one point is p = 0 itself
        assert res.scan == ((0.0, res.certificate["objective"]),)
        assert res.tol == 1e-2

    def test_rejects_unknown_scope(self, strange):
        with pytest.raises(ValueError):
            kd_threshold(strange, scope="all")

    @pytest.mark.parametrize("scope", ["state", "subtheory"])
    @pytest.mark.parametrize("tol", [0.0, -1e-3, float("nan")])
    def test_rejects_non_positive_tol(self, strange, scope, tol):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            kd_threshold(strange, scope=scope, tol=tol)


@pytest.mark.parametrize(
    "threshold", [polytope_threshold, kd_threshold, crit_threshold]
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
            np.abs(represent_effect(frame, Operator(dim, proj, role="effect")).flat().imag)
            .max()
            for proj in _stabilizer_projectors(dim.d)
        )
        assert worst >= subtheory_floor(dim.d)


class TestCritThreshold:
    def test_takes_minimum_family(self, strange):
        res = crit_threshold(strange, config=FAST, tol=1e-3)
        assert res.kind == "crit"
        # the winning state-scope KD value is exact, and no search ran
        assert res.certificate["family"] == "kd"
        per = res.certificate["per_family"]
        assert abs(per["gross"] - 0.75) < 1e-9
        assert res.p == per["kd"]
        assert res.p <= per["gross"]

    def test_gross_only_equals_wigner(self, strange):
        # in scope subtheory gross is the only family with a threshold
        res = crit_threshold(strange, config=FAST, scope="subtheory")
        wigner = wigner_threshold(strange)
        assert res.p == wigner.p
        assert res.certificate["family"] == "gross"
        assert res.certificate["per_family"] == {"gross": wigner.p, "kd": None}
        assert res.certificate["winner"] == wigner.certificate
        assert res.scan == wigner.scan

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
