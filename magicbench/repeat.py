"""Repeat runs of the benchmark and summarise their spread.

    python3 magicbench/repeat.py --workload kd-state --runs 10 --first-seed 1
    python3 magicbench/repeat.py --workload cli-oneshot --runs 10 --sets 2

Each run is a separate `run.py` process with its own seed; set s uses the
seeds first_seed + s*runs ... first_seed + s*runs + runs - 1, so no two runs
share a seed. For every metric the report gives, per set, the median, the
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median of
every end-to-end metric, next to its bound from BENCHMARK.json. Every run
measures for BENCHMARK.json's run_seconds. With two sets it also gives
how far the second median lies from the first in the metric's worse
direction, and whether the failed share of the two sets is identical. The
environment block of the first run heads the report; the last line of
stdout is the whole report as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"run.py failed on {workload} seed {seed}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[-2].removeprefix("# environment "))
    return json.loads(lines[-1]), env


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
        "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("need at least two runs for quartiles")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report = {"environment": None, "seconds": seconds, "workloads": {}}
    # Sets are the outer loop, so the second set runs after the first has
    # finished on every workload, as two separate sets of runs would.
    for s in range(args.sets):
        for workload in args.workload:
            seeds = [args.first_seed + s * args.runs + k for k in range(args.runs)]
            results = []
            for seed in seeds:
                start = time.perf_counter()
                result, env = run_once(workload, seed, seconds)
                wall = time.perf_counter() - start
                report["environment"] = report["environment"] or env
                results.append(result)
                print(f"{workload} set {s} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} wall={wall:.1f}s",
                      file=sys.stderr, flush=True)
            report["workloads"].setdefault(workload, {"sets": []})["sets"].append({
                "seeds": seeds,
                "all_correct": all(r["correct"] for r in results),
                "failed_share": [r["failed"] / r["attempted"] for r in results],
                "metrics": {
                    name: summarise([r["metrics"][name]["value"] for r in results])
                    for name in bounds
                },
            })
    for entry in report["workloads"].values():
        sets = entry["sets"]
        if len(sets) == 2:
            entry["failed_share_identical"] = (
                len(set(sets[0]["failed_share"] + sets[1]["failed_share"])) == 1
            )
            entry["second_median_worse_by"] = {}
            for name in bounds:
                m0 = sets[0]["metrics"][name]["median"]
                m1 = sets[1]["metrics"][name]["median"]
                worse = (m1 - m0) if better[name] == "lower" else (m0 - m1)
                entry["second_median_worse_by"][name] = worse / m0 if m0 else 0.0

    print("environment " + json.dumps(report["environment"], sort_keys=True))
    for workload, entry in report["workloads"].items():
        for s, data in enumerate(entry["sets"]):
            print(f"{workload} set {s}: all correct={data['all_correct']} "
                  f"failed share={sorted(set(data['failed_share']))}")
            for name, st in data["metrics"].items():
                print(f"  {name:12s} median {st['median']:.6g}  Q1 {st['q1']:.6g}  "
                      f"Q3 {st['q3']:.6g}  spread {st['spread']:.3f}  bound {bounds[name]}")
        if "second_median_worse_by" in entry:
            print(f"{workload}: failed share identical={entry['failed_share_identical']}")
            for name, worse in entry["second_median_worse_by"].items():
                print(f"  {name:12s} second median worse by {worse:+.3f}  bound {bounds[name]}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
