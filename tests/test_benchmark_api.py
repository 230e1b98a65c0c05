"""The names the benchmark in magicbench/ reaches into still resolve.

The benchmark's tracer patches two methods by name and its workloads call
the threshold functions and the CLI directly, so a change under src/ that
renames or re-signs one of them breaks the benchmark. These tests run the
benchmark's own code against the package, one cheap operation per
workload.
"""

import sys
from pathlib import Path

import pytest

from magicnoise import optimize, qudit, thresholds

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "magicbench"))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tracer_installs_and_uninstalls():
    originals = [
        vars(qudit.Operator)["__post_init__"],
        vars(optimize._Objective)["__call__"],
        qudit.stabilizer_states,
    ]
    # the polytope LP reads the stabilizer states once per d, through
    # this cache; emptied, the operation calls qudit.stabilizer_states
    thresholds._stabilizer_projectors.cache_clear()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workloads.runner("polytope-batch")(workloads.FIRST_OP["polytope-batch"])
    finally:
        tracer.uninstall()
    spans = tracer.summary()
    for name in ("qudit.Operator", "qudit.stabilizer_states", "thresholds.polytope_threshold"):
        assert name in spans
    assert originals == [
        vars(qudit.Operator)["__post_init__"],
        vars(optimize._Objective)["__call__"],
        qudit.stabilizer_states,
    ]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_first_op_passes_its_oracle(workload):
    op = workloads.FIRST_OP[workload]
    result = workloads.runner(workload)(op)
    assert oracles.check(op, result, oracles.reference(op)) == []
