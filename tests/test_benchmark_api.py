"""The names the benchmark in magicbench/ reaches into still resolve.

The benchmark's tracer patches two methods by name and its workloads call
the threshold functions and the CLI directly, so a change under src/ that
renames or re-signs one of them, or reshapes an output its oracles read,
breaks the benchmark. These tests run the benchmark's own code against the
package: every operation of each workload's seed-1 list, checked by its
oracle.
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
def test_every_seed_1_op_passes_its_oracle(workload):
    ops = workloads.build(workload, 1)
    assert ops[0] == workloads.FIRST_OP[workload]
    run = workloads.runner(workload)
    outputs, problems = [], []
    for op in ops:
        outputs.append(run(op))
        found = oracles.check(op, outputs[-1], oracles.reference(op))
        problems += [f"{op.label}: {p}" for p in found]
        if op.rerun_of is not None and outputs[-1] != outputs[op.rerun_of]:
            problems.append(f"{op.label}: output differs from its first run")
    assert problems == []
