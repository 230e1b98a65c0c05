import json
import subprocess
import sys
from pathlib import Path

import pytest

REPORT = Path(__file__).resolve().parents[1] / "scripts" / "threshold_report.py"


def run_report(*args):
    return subprocess.run(
        [sys.executable, str(REPORT), *args], capture_output=True, text=True, timeout=300
    )


class TestThresholdReport:
    @pytest.mark.parametrize("state, wigner", [("strange", 0.75), ("norrell", 0.6)])
    def test_writes_all_four_results(self, tmp_path, state, wigner):
        out = tmp_path / "report.json"
        proc = run_report("--state", state, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith(f"wrote {out}\n")
        doc = json.loads(out.read_text())
        assert sorted(doc) == ["crit", "kd", "polytope", "wigner"]
        assert doc["wigner"]["p"] == pytest.approx(wigner, abs=1e-12)

    @pytest.mark.parametrize(
        "args",
        [("--d", "5"), ("--d", "7"), ("--state", "custom"), ("--state", "cubic")],
        ids=["d5", "d7", "custom", "unknown"],
    )
    def test_unsupported_input_is_a_usage_error(self, args):
        proc = run_report(*args)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "error:" in proc.stderr and proc.stdout == ""

    @pytest.mark.parametrize("where", ["a missing directory", "a directory"])
    def test_unwritable_out_exits_1(self, tmp_path, where):
        target = tmp_path if where == "a directory" else tmp_path / "missing" / "r.json"
        proc = run_report("--out", str(target))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"threshold_report.py: error: cannot write {target}: ")
        assert proc.stderr.count("\n") == 1
