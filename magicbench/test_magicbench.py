"""Tests of the benchmark itself: its oracles, its inputs and its checks.

    python3 -m pytest magicbench
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


# -- oracles reproduce known values -------------------------------------


def test_wigner_oracle_gives_three_quarters_for_strange():
    assert oracles.wigner_threshold(workloads.named_state("strange")) == pytest.approx(0.75, abs=1e-12)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_polytope_oracle_is_zero_on_stabilizer_state_and_maximally_mixed(d):
    stab = oracles.stabilizer_projectors(d)[d + 1]
    for rho in (stab, np.eye(d) / d):
        p, x = oracles.polytope_threshold(rho)
        assert p == pytest.approx(0.0, abs=1e-9)
        assert oracles.decomposition_problems(x, rho, p) == []


def test_polytope_oracle_matches_wigner_on_strange():
    p, _ = oracles.polytope_threshold(workloads.named_state("strange"))
    assert p == pytest.approx(0.75, abs=1e-8)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_stabilizer_bases_are_mutually_unbiased_weyl_eigenbases(d):
    bases = oracles.stabilizer_bases(d)
    assert len(bases) == d + 1
    shift = np.roll(np.eye(d), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    for k, basis in enumerate(bases):
        assert np.allclose(basis.conj().T @ basis, np.eye(d), atol=1e-12)
        weyl = clock if k == 0 else shift @ np.linalg.matrix_power(clock, k - 1)
        for v in basis.T:
            w = weyl @ v
            assert np.allclose(w, (v.conj() @ w) * v, atol=1e-12)
        for other in bases[k + 1 :]:
            assert np.allclose(np.abs(basis.conj().T @ other) ** 2, 1.0 / d, atol=1e-12)


def test_kd_oracle_decodes_identity_parameters_to_identity():
    assert np.allclose(oracles.unitary_from_params(3, np.zeros(9)), np.eye(3))


# -- inputs are a pure function of the seed ------------------------------


def _fingerprint(ops):
    return [(op.label, op.rho.tobytes(), op.argv, op.rerun_of) for op in ops]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_pure_function_of_the_seed(workload):
    assert _fingerprint(workloads.build(workload, 7)) == _fingerprint(workloads.build(workload, 7))
    assert _fingerprint(workloads.build(workload, 7)) != _fingerprint(workloads.build(workload, 8))


@pytest.mark.parametrize("workload", ["polytope-batch", "kd-state", "crit-subtheory"])
def test_generated_states_are_full_rank_and_magic_rich(workload):
    for op in workloads.build(workload, 11):
        if op.named is None:
            rho = op.rho
            assert np.allclose(rho, rho.conj().T, atol=1e-14)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rho).min() > 0.0
            assert oracles.wigner_threshold(rho) >= workloads.MIN_WIGNER_P


# -- every check reports a deliberately wrong result ---------------------


@pytest.fixture(scope="module")
def outputs():
    """One real output per operation kind, with its operation and oracle values."""
    ops = {
        "polytope": workloads.build("polytope-batch", 5)[2],
        "kd": workloads.FIRST_OP["kd-state"],
        "crit": workloads.FIRST_OP["crit-subtheory"],
    }
    out = {}
    for method, op in ops.items():
        workload = {"polytope": "polytope-batch", "kd": "kd-state", "crit": "crit-subtheory"}[method]
        out[method] = (op, workloads.runner(workload)(op), oracles.reference(op))
    cli_run = workloads.runner("cli-oneshot")
    for op in workloads.build("cli-oneshot", 5):
        if op.rerun_of is None and "d=7" not in op.label:
            out[op.label] = (op, cli_run(op), oracles.reference(op))
    return out


def test_real_outputs_pass_every_check(outputs):
    for op, result, ref in outputs.values():
        assert oracles.check(op, result, ref) == [], op.label


def _replace(result, **certificate):
    return dataclasses.replace(result, certificate={**result.certificate, **certificate})


def _fails(entry, result):
    op, _, ref = entry
    return oracles.check(op, result, ref) != []


def test_polytope_check_reports_wrong_results(outputs):
    entry = outputs["polytope"]
    result = entry[1]
    coeffs = np.array(result.certificate["coefficients"])
    assert _fails(entry, dataclasses.replace(result, p=result.p + 0.01))
    assert _fails(entry, dataclasses.replace(result, p=result.p - 0.01))
    # 1e-8 below the LP optimum is the program's residual band; a few 1e-7
    # below it, or below Wigner, is not
    lp = entry[2]["polytope"]
    assert oracles._polytope_p_problems(lp - 1e-8, entry[2], result.tol) == []
    assert oracles._polytope_p_problems(lp - 3e-7, entry[2], result.tol) != []
    assert oracles._polytope_p_problems(lp - 3e-7, {"polytope": lp - 3e-7, "wigner": lp}, result.tol) != []
    assert _fails(entry, _replace(result, coefficients=np.roll(coeffs, 1).tolist()))
    assert _fails(entry, _replace(result, coefficients=(coeffs * 1.01).tolist()))
    assert _fails(entry, _replace(result, p_wigner=result.certificate["p_wigner"] + 1e-6))


def test_kd_check_reports_wrong_results(outputs):
    entry = outputs["kd"]
    result = entry[1]
    params = np.array(result.certificate["frame_params"])
    rep = result.certificate["representation"]
    assert _fails(entry, dataclasses.replace(result, p=0.5))
    assert _fails(entry, _replace(result, frame_params=(params + 0.01).tolist()))
    assert _fails(entry, _replace(result, representation={"re": rep["re"][::-1], "im": rep["im"]}))


def test_crit_check_reports_wrong_results(outputs):
    entry = outputs["crit"]
    result = entry[1]
    per_family = result.certificate["per_family"]
    assert _fails(entry, dataclasses.replace(result, p=min(1.0, entry[2]["wigner"] + 0.01)))
    assert _fails(entry, _replace(result, per_family={**per_family, "gross": per_family["gross"] - 1e-6}))
    assert _fails(entry, _replace(result, per_family={**per_family, "gross": None}))


def _edit_json(data: bytes, edit) -> bytes:
    doc = json.loads(data)
    edit(doc)
    return json.dumps(doc).encode()


def test_cli_check_reports_wrong_results(outputs):
    wigner = outputs["wigner d=3 strange json"]
    assert _fails(wigner, (1, wigner[1][1]))
    assert _fails(wigner, (0, _edit_json(wigner[1][1], lambda d: d["result"].update(p=0.7))))
    assert _fails(wigner, (0, _edit_json(wigner[1][1], lambda d: d["result"].update(kind="polytope"))))

    polytope_csv = outputs["polytope d=3 norrell csv"]
    text = polytope_csv[1][1].decode()
    p_line = next(line for line in text.splitlines() if line.startswith("# p="))
    assert _fails(polytope_csv, (0, text.replace(p_line, "# p=0.65").encode()))
    low = polytope_csv[2]["polytope"] - 3e-7
    assert _fails(polytope_csv, (0, text.replace(p_line, f"# p={low!r}").encode()))

    polytope_json = outputs["polytope d=5 custom json"]
    assert _fails(polytope_json, (0, _edit_json(
        polytope_json[1][1],
        lambda d: d["result"]["certificate"].update(coefficients=d["result"]["certificate"]["coefficients"][::-1]),
    )))

    scan = outputs["scan d=5 custom csv"]
    lines = scan[1][1].decode().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("0.5,gross,"))
    fields = lines[row].split(",")
    fields[2] = repr(float(fields[2]) + 1e-6)
    lines[row] = ",".join(fields)
    assert _fails(scan, (0, ("\n".join(lines) + "\n").encode()))
    assert _fails(scan, (0, ("\n".join(lines[:-2]) + "\n").encode()))


def test_validate_check_reports_failed_validation():
    op = next(op for op in workloads.build("cli-oneshot", 5) if op.argv[0] == "validate")
    out = workloads.runner("cli-oneshot")(op)
    assert oracles.check(op, out, {}) == []
    bad = _edit_json(out[1], lambda d: d["result"].update(passed=False))
    assert oracles.check(op, (0, bad), {}) != []


def test_repeats_must_agree_byte_for_byte():
    ops = workloads.build("cli-oneshot", 5)
    first = workloads.runner("cli-oneshot")(ops[0])
    outputs = [[] for _ in ops]
    outputs[0] = [first, first]
    assert run.check_outputs(ops, outputs) == []
    outputs[0] = [first, (0, first[1] + b" ")]
    assert any("differs between repeats" in p for p in run.check_outputs(ops, outputs))
    rerun = next(i for i, op in enumerate(ops) if op.rerun_of is not None)
    outputs[0] = [first]
    outputs[ops[rerun].rerun_of] = [(0, b"{}")]
    outputs[rerun] = [(0, b"{} ")]
    assert any("differs between repeats" in p for p in run.check_outputs(ops, outputs))


# -- the tracer ----------------------------------------------------------


def test_tracer_records_nested_spans_and_restores_the_program():
    import tracing
    from magicnoise import qudit, representations, thresholds

    originals = (representations.standard_operational_set, thresholds.depolarize, qudit.Operator.__post_init__)
    strange = qudit.magic_state("strange", qudit.Dimension(3))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # unitary_channel takes a `name` keyword, which the wrappers must pass through
        tracer.call("op", representations.standard_operational_set, strange, 0.5)
    finally:
        tracer.uninstall()
    assert (representations.standard_operational_set, thresholds.depolarize, qudit.Operator.__post_init__) == originals
    spans = tracer.summary()
    assert spans["representations.unitary_channel"]["calls"] == 4
    assert spans["qudit.depolarize"]["calls"] == 1
    assert spans["op"]["self_s"] <= spans["op"]["total_s"]
    root = tracer.names.index("op")
    opset = tracer.names.index("representations.standard_operational_set")
    assert tracer.parents[opset] == root
