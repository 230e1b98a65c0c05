#!/usr/bin/env python3
"""Compare all four noise thresholds for one magic state.

Computes, for a chosen qutrit magic state, the noise rates at which

  * the Gross-Wigner representation turns non-negative (wigner),
  * the state enters the stabilizer polytope (polytope),
  * some Kirkwood-Dirac frame represents the state classically (kd),
  * the lower of the gross and KD family thresholds (crit),

and prints them side by side with the winning family of crit.

Example:
    python3 scripts/threshold_report.py --state strange
"""

import argparse
import sys
import time

from magicnoise import (
    Dimension,
    crit_threshold,
    kd_threshold,
    magic_state,
    polytope_threshold,
    wigner_threshold,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--state", default="strange", choices=("strange", "norrell"),
        help="qutrit magic state kind",
    )
    ap.add_argument("--out", help="also write the raw results to this JSON file")
    args = ap.parse_args()

    rho = magic_state(args.state, Dimension(3))

    results = {}
    for name, compute in (
        ("wigner", wigner_threshold),
        ("polytope", polytope_threshold),
        ("kd", kd_threshold),
        ("crit", crit_threshold),
    ):
        t0 = time.perf_counter()
        results[name] = compute(rho)
        print(
            f"{name:>8s}: p = {results[name].p:.6f}"
            f"   ({time.perf_counter() - t0:.2f}s)"
        )

    winner = results["crit"].certificate["family"]
    print(f"\nbest family: {winner}")

    if args.out:
        from magicnoise import dumps, result_to_dict

        doc = {name: result_to_dict(res) for name, res in results.items()}
        try:
            with open(args.out, "w") as fh:
                fh.write(dumps(doc))
        except OSError as exc:
            print(f"{ap.prog}: error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
