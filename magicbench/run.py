"""Benchmark entry point: run one workload of magicnoise and report.

    python3 magicbench/run.py --workload polytope-batch --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
The run repeats the workload's operation list (workloads.py) in whole
rounds until --seconds have been spent in timed operations, so every run
attempts whole rounds of the same operations. One process and one thread
carry the load, with the BLAS thread count pinned to one before NumPy is
imported. One untimed warm-up operation precedes timing.

--trace 0 reports the end-to-end metrics: setup_s, op_p50_s, ops_per_s and
peak_rss_mb. --trace 1 alternates untraced and traced rounds in process and
reports the per-layer metrics (tracing.py). Either way every output is
checked against the independent oracles (oracles.py) after timing ends.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(BLAS_ENV)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 3  # fresh interpreters timed besides the run's own set-up
CLI_TIMEOUT_S = 120

# Span names (tracing.py) whose self time per operation is a per-layer metric.
SELF_TIME_SPANS = (
    "qudit.Operator",
    "qudit.stabilizer_states",
    "frames.gross_wigner_frame",
    "frames.validate_frame",
    "frames.frame_from_unitaries",
    "representations.represent_state",
    "representations.standard_operational_set",
    "representations.omega",
    "simplex.phase_one",
    "thresholds.wigner_threshold",
    "optimize.minimize_omega",
    "serialize.result_to_dict",
    "serialize.dumps",
    "cli.main",
)
# Per-layer count metric -> span whose calls per operation it reports.
CALL_COUNTS = {
    "qudit.Operator.constructions": "qudit.Operator",
    "qudit.depolarize.calls": "qudit.depolarize",
    "simplex.phase_one.calls": "simplex.phase_one",
    "thresholds.wigner_threshold.calls": "thresholds.wigner_threshold",
    "optimize.minimize_omega.calls": "optimize.minimize_omega",
    "optimize.nelder_mead.calls": "optimize.nelder_mead",
    "optimize.objective.evals": "optimize.objective",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def spawn(argv: list[str]) -> tuple[int, bytes, bytes, int]:
    """Run a child to completion: (exit code, stdout, stderr, the child's
    own peak RSS in KiB)."""
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT, env=child_env()
    )
    killer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
    killer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err[0], usage.ru_maxrss


def probe(*args: str) -> float:
    code, out, err, _ = spawn([sys.executable, str(HERE / "setup_probe.py"), *args])
    if code != 0:
        raise RuntimeError(f"set-up probe failed: {err.decode(errors='replace')}")
    return next(iter(json.loads(out.decode().splitlines()[-1]).values()))


def environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
    }


class Runner:
    """Calls one operation and keeps what the report needs from it."""

    def __init__(self, workload: str, subprocess_cli: bool):
        import workloads

        self.subprocess_cli = subprocess_cli
        self.indeterminate_warnings = 0
        self.child_rss_kib = 0
        self._run = None if subprocess_cli else workloads.runner(workload)

    def __call__(self, op):
        if self.subprocess_cli:
            code, out, err, rss = spawn([sys.executable, "-m", "magicnoise", *op.argv])
            self.child_rss_kib = max(self.child_rss_kib, rss)
            if code != 0:
                raise RuntimeError(f"exit code {code}: {err.decode(errors='replace')}")
            return code, out
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = self._run(op)
        self.indeterminate_warnings += sum(
            "indeterminate polytope membership" in str(w.message) for w in caught
        )
        return result


class Rounds:
    """Outputs and counts of every operation attempted so far."""

    def __init__(self, ops):
        self.ops = ops
        self.outputs: list[list] = [[] for _ in ops]
        self.attempted = 0
        self.failed = 0

    def run(self, call) -> list[float]:
        """One whole round; returns the wall times of the completed operations."""
        durations = []
        for i, op in enumerate(self.ops):
            self.attempted += 1
            start = time.perf_counter()
            try:
                result = call(op)
            except Exception as exc:  # a failed operation is counted, not fatal
                self.failed += 1
                print(f"FAILED {op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            durations.append(time.perf_counter() - start)
            self.outputs[i].append(result)
        return durations


def check_outputs(ops, outputs: list[list]) -> list[str]:
    """Oracle and property checks on each operation's first output, and
    byte-for-byte (or value-for-value) agreement of every repeat."""
    import oracles

    problems = []
    for i, op in enumerate(ops):
        if not outputs[i]:
            continue
        try:
            ref = oracles.reference(op)
        except oracles.OracleError as exc:
            problems.append(f"{op.label}: {exc}")
            continue
        problems += [f"{op.label}: {p}" for p in oracles.check(op, outputs[i][0], ref)]
        first = outputs[op.rerun_of if op.rerun_of is not None else i]
        if first and not all(out == first[0] for out in outputs[i]):
            problems.append(f"{op.label}: output differs between repeats")
    return problems


def timed(args, ops, own_setup_s: float) -> tuple[dict, Rounds]:
    import resource

    runner = Runner(args.workload, subprocess_cli=args.workload == "cli-oneshot")
    rounds = Rounds(ops)
    durations: list[float] = []
    while True:
        durations += rounds.run(runner)
        if sum(durations) >= args.seconds or not durations:
            break
    if runner.subprocess_cli:
        peak_kib = runner.child_rss_kib
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup = statistics.median([own_setup_s] + [probe(args.workload) for _ in range(SETUP_PROBES)])
    spent = sum(durations)
    metrics = {
        "setup_s": (setup, "s"),
        "op_p50_s": (statistics.median(durations) if durations else 0.0, "s"),
        "ops_per_s": (len(durations) / spent if spent else 0.0, "1/s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }
    return metrics, rounds


def traced(args, ops) -> tuple[dict, Rounds]:
    import tracing

    runner = Runner(args.workload, subprocess_cli=False)
    rounds = Rounds(ops)
    tracer = tracing.Tracer()
    plain: list[float] = []
    traced_durations: list[float] = []
    traced_warnings = n = 0
    while True:
        plain += rounds.run(runner)
        before = runner.indeterminate_warnings
        tracer.install()
        try:
            traced_durations += rounds.run(lambda op: tracer.call("op", runner, op))
        finally:
            tracer.uninstall()
        traced_warnings += runner.indeterminate_warnings - before
        n += len(ops)
        if sum(plain) + sum(traced_durations) >= args.seconds or not traced_durations:
            break

    spans = tracer.summary()

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    pivots = tracer.counts["simplex.phase_one.pivots"]
    evals = span("optimize.objective", "calls")
    useful, nm_runs = tracer.restart_useful_ratio()
    metrics = {f"{name}.self_s": (span(name, "self_s") / n, "s") for name in SELF_TIME_SPANS}
    metrics.update({metric: (span(name, "calls") / n, "count") for metric, name in CALL_COUNTS.items()})
    metrics.update({
        "simplex.phase_one.pivots": (pivots / n, "count"),
        "simplex.phase_one.us_per_pivot": (
            span("simplex.phase_one", "self_s") * 1e6 / pivots if pivots else 0.0, "us"),
        "thresholds.bisect_threshold.predicate_evals": (
            tracer.counts["thresholds.bisect_threshold.predicate_evals"] / n, "count"),
        "thresholds.polytope.indeterminate_warnings": (traced_warnings / n, "count"),
        "optimize.objective.us_per_eval": (
            span("optimize.objective", "total_s") * 1e6 / evals if evals else 0.0, "us"),
        "optimize.restart.useful_ratio": (useful / nm_runs if nm_runs else 0.0, "ratio"),
        "cli.import_s": (statistics.median(probe("--import-only") for _ in range(SETUP_PROBES)), "s"),
        "trace.overhead_s": (
            statistics.median(traced_durations) - statistics.median(plain)
            if plain and traced_durations else 0.0, "s"),
    })
    return metrics, rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "magicnoise" / "__init__.py").is_file():
        print(f"error: no magicnoise sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import magicnoise  # noqa: F401  (timed as part of set-up)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick one of {workloads.WORKLOADS}")
    try:  # the untimed warm-up, which also gives this process's set-up time
        workloads.runner(args.workload)(workloads.FIRST_OP[args.workload])
    except Exception as exc:
        print(f"warm-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    own_setup_s = time.perf_counter() - start

    ops = workloads.build(args.workload, args.seed)
    if args.trace:
        metrics, rounds = traced(args, ops)
    else:
        metrics, rounds = timed(args, ops, own_setup_s)
    problems = check_outputs(ops, rounds.outputs)
    for problem in problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    print("# environment " + json.dumps(environment(), sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": rounds.attempted,
                "failed": rounds.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
