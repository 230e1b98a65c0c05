import contextlib
import gc
import io
import json
import subprocess
import sys
from typing import NamedTuple

import numpy as np
import pytest

import magicnoise
from magicnoise import cli
from magicnoise import (
    Dimension,
    SimplexError,
    canonical_mub_frame,
    depolarize,
    gross_wigner_frame,
    magic_state,
    penalty,
    represent_state,
)


class Completed(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


def run_cli(*args):
    """`magicnoise ARGS` run in this process by cli.main, with what it
    writes captured as text, as subprocess.run reports it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return Completed(code, out.getvalue(), err.getvalue())


def run_process(*args):
    """`python -m magicnoise ARGS` in a fresh interpreter, for the tests
    whose subject is the process: the entry point, its exit on --help and
    --version, and output that must not depend on what ran before it."""
    return subprocess.run(
        [sys.executable, "-m", "magicnoise", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestThresholdCommand:
    def test_wigner_json_report(self):
        proc = run_process("threshold", "--method", "wigner", "--state", "strange", "--d", "3")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["schema"] == 1
        assert doc["version"] == magicnoise.__version__
        assert doc["config"]["method"] == "wigner"
        assert doc["result"]["kind"] == "wigner"
        assert 0.0 < doc["result"]["p"] < 1.0
        assert abs(doc["result"]["p"] - 0.75) < 1e-6

    def test_custom_stabilizer_vector_gives_zero(self):
        proc = run_cli(
            "threshold", "--method", "wigner", "--state", "custom", "--vec", "1,0,0"
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["result"]["p"] == 0.0

    def test_polytope_method(self):
        proc = run_cli("threshold", "--method", "polytope", "--state", "norrell")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert abs(doc["result"]["p"] - 0.6) < 3e-6
        cert = doc["result"]["certificate"]
        assert cert["coincidence_with_wigner"] == "CONFIRMED"

    def test_kd_report_shape(self):
        proc = run_cli("threshold", "--method", "kd")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        res = doc["result"]
        assert set(res) == {"kind", "p", "certificate", "tol"}
        assert res["kind"] == "kd"
        assert res["p"] == 0.0
        assert set(doc["config"]) == {"d", "state", "vec", "format", "method", "scope"}
        deleted = {
            "gap_tolerance", "ordering_satisfied", "diagnostics", "witness_recheck"
        }
        assert not deleted & set(res["certificate"])

    def test_crit_method(self):
        proc = run_cli("threshold", "--method", "crit")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["result"]["kind"] == "crit"
        per = doc["result"]["certificate"]["per_family"]
        assert set(per) == {"gross", "kd"}
        # the exact state-scope KD value wins, and no search ran
        assert doc["result"]["certificate"]["family"] == "kd"
        assert doc["result"]["p"] == 0.0

    def test_csv_format_embeds_config(self):
        proc = run_cli("threshold", "--method", "wigner", "--format", "csv")
        assert proc.returncode == 0
        lines = proc.stdout.split("\n")
        assert f"# version={magicnoise.__version__}" in lines
        assert any(line.startswith("# method=") for line in lines)
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert lines[header] == "kind,p"
        assert "\r" not in proc.stdout

    def test_out_file(self, tmp_path):
        target = tmp_path / "report.json"
        proc = run_cli("threshold", "--method", "wigner", "--out", str(target))
        assert proc.returncode == 0
        assert proc.stdout == ""
        doc = json.loads(target.read_text())
        assert doc["result"]["kind"] == "wigner"

    @pytest.mark.parametrize(
        "args",
        [
            ["threshold", "--method", "wigner"],
            ["scan", "--step", "0.5"],
            ["validate", "--builtin", "gross"],
        ],
    )
    @pytest.mark.parametrize("where", ["missing directory", "a directory"])
    def test_unwritable_out_exits_1(self, tmp_path, args, where):
        target = tmp_path if where == "a directory" else tmp_path / "missing" / "report.json"
        proc = run_cli(*args, "--out", str(target))
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"magicnoise: error: cannot write {target}: ")
        assert proc.stderr.count("\n") == 1 and proc.stdout == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("method", ["wigner", "polytope", "kd", "crit"])
    def test_csv_is_the_preamble_and_one_row(self, method):
        json_p = json.loads(run_cli("threshold", "--method", method).stdout)["result"]["p"]
        proc = run_cli("threshold", "--method", method, "--format", "csv")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.split("\n")
        comments = [line for line in lines if line.startswith("# ")]
        assert comments[-2:] == [f"# kind={method}", f"# p={json_p!r}"]
        assert lines[len(comments):] == ["kind,p", f"{method},{json_p!r}", ""]

    def test_no_threshold_exit_code(self):
        proc = run_cli("threshold", "--method", "kd", "--scope", "subtheory")
        assert proc.returncode == 2
        assert "no threshold" in proc.stderr
        assert "subtheory_floor(3) = 0.2887" in proc.stderr
        assert "(best found at p = 1: 16.3923)" in proc.stderr

    @pytest.mark.parametrize(
        "flag, value",
        [("--seed", "1"), ("--class-tol", "1e-9"), ("--tol", "1e-3"), ("--restarts", "2")],
    )
    def test_removed_flags_are_unrecognised(self, flag, value):
        proc = run_cli("threshold", "--method", "kd", flag, value)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert f"error: unrecognized arguments: {flag}" in proc.stderr

    @pytest.mark.parametrize("method", ["wigner", "polytope", "kd", "crit"])
    def test_every_method_records_the_library_default_tol(self, method):
        proc = run_cli("threshold", "--method", method)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["result"]["tol"] == 1e-6
        assert "tol" not in doc["config"]

    @pytest.mark.parametrize("state", ["strange", "norrell"])
    def test_polytope_json_report_has_no_negative_zero(self, state):
        proc = run_cli("threshold", "--method", "polytope", "--state", state)
        assert proc.returncode == 0, proc.stderr
        assert "-0.0" not in proc.stdout
        assert json.loads(proc.stdout)["result"]["certificate"]["witness"]

    def test_vec_with_leading_minus_takes_the_space_separated_form(self):
        vec = "-0.5+0.1j,1,0"
        spaced = run_cli("threshold", "--state", "custom", "--vec", vec, "--format", "csv")
        joined = run_cli("threshold", "--state", "custom", f"--vec={vec}", "--format", "csv")
        assert spaced.returncode == 0, spaced.stderr
        assert spaced.stdout == joined.stdout
        assert f"# vec={vec!r}" in spaced.stdout.split("\n")
        for abbrev in ("--v", "--ve"):
            short = run_cli("threshold", "--state", "custom", abbrev, vec, "--format", "csv")
            assert short.returncode == 0, short.stderr
            assert short.stdout == joined.stdout

    @pytest.mark.parametrize("vec", ["1,nan,0", "1,1e308,1e308", "1,inf,0", "1,-inf,0"])
    def test_non_finite_vec_exits_1_without_warnings(self, vec):
        proc = run_cli("threshold", "--state", "custom", f"--vec={vec}")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (
            "magicnoise: error: custom vector must have finite components and norm\n"
        )

    def test_vec_takes_a_trailing_i_as_the_imaginary_unit(self):
        with_i = run_cli("threshold", "--state", "custom", "--vec", "1+2i,0,0")
        with_j = run_cli("threshold", "--state", "custom", "--vec", "1+2j,0,0")
        assert with_i.returncode == 0, with_i.stderr
        assert json.loads(with_i.stdout)["result"] == json.loads(with_j.stdout)["result"]

    def test_internal_certificate_failure_exits_1_on_one_line(self, monkeypatch):
        def failing(rho):
            raise SimplexError("polytope LP certificate fails its check")

        monkeypatch.setattr(cli, "polytope_threshold", failing)
        proc = run_cli("threshold", "--method", "polytope")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "magicnoise: error: polytope LP certificate fails its check\n"

    def test_vec_without_value_is_invalid(self):
        proc = run_cli("threshold", "--state", "custom", "--vec", "--format", "csv")
        assert proc.returncode == 1
        assert "--vec" in proc.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ("threshold", "--method", "unknown"),
            ("threshold", "--d", "4"),
            ("threshold", "--state", "custom"),
            ("threshold", "--state", "custom", "--vec", "0,0,0"),
            ("threshold", "--state", "custom", "--vec", "1,oops,0"),
            ("nonsense",),
        ],
    )
    def test_invalid_input_exit_code(self, args):
        proc = run_cli(*args)
        assert proc.returncode == 1
        assert proc.stderr


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema": 1, "state": "norrell"}))
        proc = run_cli("threshold", "--config", str(cfg), "--method", "wigner")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["config"]["state"] == "norrell"
        assert doc["config"]["method"] == "wigner"
        assert abs(doc["result"]["p"] - 0.6) < 1e-4

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema": 1, "stat": "norrell"}))
        proc = run_cli("threshold", "--config", str(cfg))
        assert proc.returncode == 1
        assert "stat" in proc.stderr

    def test_missing_schema_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        # true == 1 in Python, but a boolean is not a schema number
        for doc in ({"state": "norrell"}, {"schema": True, "state": "norrell"}):
            cfg.write_text(json.dumps(doc))
            proc = run_cli("threshold", "--config", str(cfg))
            assert proc.returncode == 1
            assert "schema" in proc.stderr

    def test_malformed_json_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        proc = run_cli("threshold", "--config", str(cfg))
        assert proc.returncode == 1

    @pytest.mark.parametrize(
        "key, value",
        [
            ("d", 5.9),
            ("d", True),
        ],
    )
    def test_integer_keys_reject_fractions_and_bools(self, tmp_path, key, value):
        cfg = tmp_path / "cfg.json"
        doc = {"schema": 1, "state": "custom", "vec": "1,0,0,0,1", "d": 5, key: value}
        cfg.write_text(json.dumps(doc))
        proc = run_cli("threshold", "--config", str(cfg))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (
            f"magicnoise: error: {key} must be an integer, got {value!r}\n"
        )

    def test_integral_numbers_are_integers(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        doc = {"schema": 1, "state": "custom", "vec": "1,0,0,0,1", "d": 5.0}
        cfg.write_text(json.dumps(doc))
        proc = run_cli("threshold", "--config", str(cfg), "--format", "csv")
        assert proc.returncode == 0, proc.stderr
        assert "# d=5" in proc.stdout.split("\n")

    @pytest.mark.parametrize("method", ["wigner", "polytope", "kd", "crit"])
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("scope", "everything", "unknown scope 'everything'"),
            ("families", ["fancy"], "unknown config keys: ['families']"),
            ("format", "xml", "unknown format 'xml'"),
            ("method", "fancy", "unknown method 'fancy'"),
            ("state", "weird", "unknown state 'weird'"),
        ],
    )
    def test_scope_and_families_checked_for_every_method(
        self, tmp_path, method, key, value, message
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema": 1, key: value}))
        proc = run_cli("threshold", "--config", str(cfg), "--method", method)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith(f"magicnoise: error: {message}")

    def test_families_config_key(self, tmp_path):
        # crit always takes both families
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema": 1, "families": ["gross"]}))
        proc = run_cli("threshold", "--config", str(cfg), "--method", "crit")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "magicnoise: error: unknown config keys: ['families']\n"

    @pytest.mark.parametrize(
        "key, value", [("seed", 1), ("class_tol", 1e-9), ("tol", 1e-5), ("restarts", 2)]
    )
    def test_removed_keys_are_unknown(self, tmp_path, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema": 1, key: value}))
        proc = run_cli("threshold", "--config", str(cfg), "--method", "kd")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"magicnoise: error: unknown config keys: ['{key}']\n"


class TestScanCommand:
    def test_default_csv_output(self):
        proc = run_cli("scan", "--step", "0.5")
        assert proc.returncode == 0, proc.stderr
        lines = [l for l in proc.stdout.split("\n") if l and not l.startswith("#")]
        assert lines[0] == "p,frame,witness,min_real,max_abs_imag"
        # 3 grid points x 2 frames
        assert len(lines) == 1 + 6

    def test_grid_reaches_stop_exactly(self):
        proc = run_cli("scan", "--step", "0.01", "--format", "json")
        assert proc.returncode == 0, proc.stderr
        rows = json.loads(proc.stdout)["result"]["rows"]
        ps = sorted({r["p"] for r in rows})
        assert len(ps) == 101
        assert ps[0] == 0.0 and ps[-1] == 1.0

    def test_full_noise_rows_are_classical(self):
        proc = run_cli("scan", "--step", "0.25", "--format", "json")
        rows = json.loads(proc.stdout)["result"]["rows"]
        for row in rows:
            if row["p"] == 1.0:
                assert row["witness"] < 1e-12

    def test_witness_decreases_and_hits_zero_at_threshold(self):
        proc = run_cli("scan", "--step", "0.01", "--format", "json")
        rows = json.loads(proc.stdout)["result"]["rows"]
        gross = [(r["p"], r["witness"]) for r in rows if r["frame"] == "gross"]
        gross.sort()
        ws = [w for _, w in gross]
        assert all(b <= a + 1e-12 for a, b in zip(ws, ws[1:]))
        first_zero = next(p for p, w in gross if w <= 1e-12)
        assert abs(first_zero - 0.75) <= 0.01 + 1e-9

    @pytest.mark.parametrize("d", [3, 5, 7])
    @pytest.mark.parametrize("step", [0.05, 0.01])
    def test_rows_match_per_point_representations(self, d, step):
        # rows come from the linear form (1-p) mu(rho) + p mu(1/d); the
        # reference represents each depolarized state on its own
        rng = np.random.default_rng(d)
        vec = rng.normal(size=d) + 1j * rng.normal(size=d)
        dim = Dimension(d)
        rho = magic_state("custom", dim, custom_vec=vec)
        proc = run_cli(
            "scan", "--d", str(d), "--state", "custom",
            "--vec", ",".join(repr(complex(z)) for z in vec),
            "--step", repr(step), "--format", "json",
        )
        assert proc.returncode == 0, proc.stderr
        rows = json.loads(proc.stdout)["result"]["rows"]
        frames = {"gross": gross_wigner_frame(dim), "kd-mub": canonical_mub_frame(dim)}
        grid = [min(k * step, 1.0) for k in range(round(1 / step) + 1)]
        assert [(r["p"], r["frame"]) for r in rows] == [
            (p, name) for p in grid for name in frames
        ]
        for row in rows:
            values = represent_state(frames[row["frame"]], depolarize(rho, row["p"]))
            want = (penalty(values), values.real.min(), np.abs(values.imag).max())
            got = (row["witness"], row["min_real"], row["max_abs_imag"])
            assert np.abs(np.subtract(got, want)).max() <= 1e-14, row

    def test_largest_accepted_grid(self):
        proc = run_cli("scan", "--step", "1e-4")
        assert proc.returncode == 0, proc.stderr
        lines = [l for l in proc.stdout.split("\n") if l and not l.startswith("#")]
        assert len(lines) == 1 + 20_002
        assert [l.split(",")[:2] for l in lines[-2:]] == [
            ["1.0", "gross"],
            ["1.0", "kd-mub"],
        ]

    @pytest.mark.parametrize("step", ["1e-9", "1e-300"])
    def test_huge_grid_rejected(self, step):
        proc = run_cli("scan", "--step", step)
        assert proc.returncode == 1
        assert "grid points" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("step", ["inf", "nan"])
    def test_non_finite_step_rejected(self, step):
        proc = run_cli("scan", "--step", step)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"magicnoise: error: step must be finite, got {step}\n"

    def test_empty_grid_rejected(self):
        proc = run_cli("scan", "--start", "0.3", "--stop", "0.3")
        assert proc.returncode == 1

    def test_space_separated_negative_start_is_its_value(self):
        proc = run_cli("scan", "--start", "-0.5")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "magicnoise: error: need 0 <= start < stop <= 1\n"

    def test_scan_frames_config_key(self, tmp_path):
        # scan always evaluates gross and kd-mub
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema": 1, "scan_frames": ["gross"]}))
        proc = run_cli(
            "scan", "--config", str(cfg), "--step", "0.5", "--format", "json"
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "magicnoise: error: unknown config keys: ['scan_frames']\n"


class TestValidateCommand:
    @pytest.mark.parametrize("name", ["gross", "kd-mub"])
    @pytest.mark.parametrize("d", ["3", "5", "7"])
    def test_builtin_frames_pass(self, name, d):
        proc = run_cli("validate", "--builtin", name, "--d", d)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["result"]["passed"] is True

    def test_frame_file_roundtrip_passes(self, tmp_path):
        from magicnoise import Dimension, dumps, frame_to_dict, gross_wigner_frame

        path = tmp_path / "frame.json"
        path.write_text(dumps(frame_to_dict(gross_wigner_frame(Dimension(5)))))
        proc = run_cli("validate", "--frame", str(path))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["config"]["d"] == doc["result"]["report"]["d"] == 5

    @pytest.mark.parametrize("d", ["3", "5"])
    def test_d_with_frame_file_exits_1(self, tmp_path, d):
        # the file carries its own d, even when --d agrees with it
        from magicnoise import Dimension, dumps, frame_to_dict, gross_wigner_frame

        path = tmp_path / "frame.json"
        path.write_text(dumps(frame_to_dict(gross_wigner_frame(Dimension(3)))))
        proc = run_cli("validate", "--frame", str(path), "--d", d)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (
            "magicnoise: error: --d applies to --builtin only; a frame file "
            "carries its own d\n"
        )

    def test_perturbed_frame_fails_with_exit_3(self, tmp_path):
        from magicnoise import Dimension, dumps, frame_to_dict, gross_wigner_frame

        data = frame_to_dict(gross_wigner_frame(Dimension(3)))
        data["F"][0]["re"][0][0] += 0.05
        path = tmp_path / "frame.json"
        path.write_text(dumps(data))
        proc = run_cli("validate", "--frame", str(path))
        assert proc.returncode == 3
        doc = json.loads(proc.stdout)
        assert doc["result"]["passed"] is False

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_entry_exits_1(self, tmp_path, value):
        from magicnoise import Dimension, frame_to_dict, gross_wigner_frame

        data = frame_to_dict(gross_wigner_frame(Dimension(3)))
        data["D"][4]["im"][0][1] = value
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(data))  # writes the NaN and Infinity tokens
        proc = run_cli("validate", "--frame", str(path))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (
            "magicnoise: error: frame operator D[4]: generic operator has "
            "non-finite entries\n"
        )

    @pytest.mark.parametrize(
        "case, message",
        [
            ("d=3.7", "d must be an integer, got 3.7"),
            ("d=True", "d must be an integer, got True"),
            ("operator d=3.2", "frame operator F[0]: d must be an integer, got 3.2"),
            ("no F", "frame has no key 'F'"),
            ("no D[2].re", "frame operator D[2]: operator has no key 're'"),
            ("no F[8]", "frame must have exactly 9 sample points"),
            ("list", "frame must be a JSON object, not list"),
        ],
    )
    def test_malformed_frame_file_exits_1(self, tmp_path, case, message):
        from magicnoise import Dimension, frame_to_dict, gross_wigner_frame

        data = frame_to_dict(gross_wigner_frame(Dimension(3)))
        if case == "d=3.7":
            data["d"] = 3.7
        elif case == "d=True":
            data["d"] = True
        elif case == "operator d=3.2":
            for op in data["F"] + data["D"]:
                op["d"] = 3.2
        elif case == "no F":
            del data["F"]
        elif case == "no D[2].re":
            del data["D"][2]["re"]
        elif case == "no F[8]":
            del data["F"][8]
        else:
            data = [data]
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(data))
        proc = run_cli("validate", "--frame", str(path))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"magicnoise: error: {message}\n"

    @pytest.mark.parametrize("d", [3.0, "3"])
    def test_frame_file_d_follows_the_config_integer_rule(self, tmp_path, d):
        # as in a config file, 3.0 and "3" read as 3
        from magicnoise import Dimension, frame_to_dict, gross_wigner_frame

        data = frame_to_dict(gross_wigner_frame(Dimension(3)))
        data["d"] = d
        for op in data["F"] + data["D"]:
            op["d"] = d
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(data))
        proc = run_cli("validate", "--frame", str(path))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["result"]["passed"] is True

    def test_unparseable_file_exit_1(self, tmp_path):
        path = tmp_path / "frame.json"
        path.write_text("{broken")
        proc = run_cli("validate", "--frame", str(path))
        assert proc.returncode == 1

    def test_requires_exactly_one_source(self):
        assert run_cli("validate").returncode == 1
        assert (
            run_cli("validate", "--builtin", "gross", "--frame", "x.json").returncode
            == 1
        )


class TestDeterminism:
    def test_rerun_is_byte_identical(self):
        args = ("threshold", "--method", "kd")
        first = run_process(*args)
        second = run_process(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_warm_caches_give_the_cold_bytes(self):
        # frames, stabilizer projectors and coordinate maps are cached per d
        # on first use; every command must print the same once they are
        # filled, also after a call at another d
        vec5 = "1,0.5-0.2i,-0.3,0.1i,0.7"
        argvs = [
            *(["threshold", "--method", m] for m in ("wigner", "polytope", "kd", "crit")),
            ["threshold", "--method", "crit", "--scope", "subtheory"],
            ["scan", "--step", "0.25"],
            ["validate", "--builtin", "kd-mub"],
            *(
                ["threshold", "--d", "5", "--state", "custom", f"--vec={vec5}", "--method", m]
                for m in ("wigner", "polytope", "kd", "crit")
            ),
            ["scan", "--d", "5", "--state", "custom", f"--vec={vec5}", "--step", "0.25"],
        ]
        code = (
            "import contextlib, io, sys\n"
            "from magicnoise import cli\n"
            "def run(argv):\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        code = cli.main(argv)\n"
            "    return code, out.getvalue()\n"
            f"argvs = {argvs!r}\n"
            "cold = [run(argv) for argv in argvs]\n"
            "warm = [run(argv) for argv in argvs]\n"
            "for argv, c, w in zip(argvs, cold, warm):\n"
            "    print(c[0], c == w, ' '.join(argv))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == len(argvs)
        for line in lines:
            assert line.startswith("0 True "), line


def test_import_leaves_scipy_unloaded():
    code = (
        "import sys, magicnoise, magicnoise.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_polytope_threshold_leaves_numpy_ma_unloaded():
    # np.unique imports numpy.ma on its first call, which costs a fresh
    # process about 10 ms
    code = (
        "import contextlib, io, sys\n"
        "from magicnoise import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['threshold', '--method', 'polytope'])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 False"


def test_main_leaves_the_collector_unfrozen():
    # only cli.run, the process entry, freezes the collector before exit
    before = gc.get_freeze_count()
    assert run_cli("validate", "--builtin", "gross").returncode == 0
    assert gc.get_freeze_count() == before


class TestHelpAndVersion:
    def test_version_flag(self):
        proc = run_process("--version")
        assert proc.returncode == 0
        assert proc.stdout.strip() == magicnoise.__version__

    def test_help_exits_zero(self):
        assert run_process("--help").returncode == 0
        assert run_process("threshold", "--help").returncode == 0
