"""Command-line interface.

Subcommands:
  threshold  compute one noise threshold (wigner | polytope | kd | crit)
  scan       tabulate witness values over a noise grid for fixed frames
  validate   check frame axioms for a built-in or serialized frame

Exit codes: 0 success, 1 invalid input, 2 no threshold exists in range,
3 frame validation failure. Output is deterministic: rerunning the same
command yields byte-identical bytes (no timestamps, sorted JSON keys).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .frames import canonical_mub_frame, gross_wigner_frame, validate_frame
from .optimize import NoThresholdError, OptimizerConfig
from .qudit import MAGIC_STATE_KINDS, Dimension, depolarize, magic_state
from .representations import penalty, represent_state
from .serialize import (
    dumps,
    frame_from_dict,
    result_to_dict,
    scan_csv,
    threshold_trace_csv,
    validation_report_to_dict,
)
from .thresholds import (
    FRAME_FAMILIES,
    crit_threshold,
    kd_threshold,
    polytope_threshold,
    wigner_threshold,
)

METHODS = ("wigner", "polytope", "kd", "crit")
SCAN_FRAMES = ("gross", "kd-mub")
# Largest noise grid `scan` evaluates: a step of 1e-4 over [0, 1].
MAX_SCAN_POINTS = 10_001
CONFIG_KEYS = {
    "schema",
    "d",
    "state",
    "vec",
    "method",
    "scope",
    "tol",
    "class_tol",
    "seed",
    "restarts",
    "format",
    "families",
    "scan_frames",
    "start",
    "stop",
    "step",
}


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits with code 1 on bad arguments."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    if data.get("schema") != 1:
        raise ValueError('config file must declare "schema": 1')
    unknown = set(data) - CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return data


def _resolve(args: argparse.Namespace, config: dict, key: str, default):
    """Command-line flag beats config-file entry beats default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config and config[key] is not None:
        return config[key]
    return default


def _parse_vec(text: str) -> np.ndarray:
    parts = [tok.strip() for tok in text.split(",")]
    if any(not tok for tok in parts):
        raise ValueError(f"empty component in vector {text!r}")
    try:
        vals = [complex(tok.replace("i", "j")) for tok in parts]
    except ValueError as exc:
        raise ValueError(f"cannot parse vector {text!r}: {exc}") from exc
    return np.array(vals, dtype=complex)


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _config_preamble(resolved: dict) -> list[str]:
    """Echo the tool version and the full effective config into CSV comments."""
    lines = [f"version={__version__}"]
    for key in sorted(resolved):
        lines.append(f"{key}={resolved[key]!r}")
    return lines


def _build_state(args: argparse.Namespace, config: dict):
    d = int(_resolve(args, config, "d", 3))
    kind = str(_resolve(args, config, "state", "strange"))
    vec_text = _resolve(args, config, "vec", None)
    if kind not in MAGIC_STATE_KINDS:
        raise ValueError(f"unknown state kind {kind!r}")
    dim = Dimension(d)
    vec = _parse_vec(str(vec_text)) if vec_text is not None else None
    rho = magic_state(kind, dim, custom_vec=vec)
    spec = {"d": d, "state": kind, "vec": None if vec_text is None else str(vec_text)}
    return dim, rho, spec


def cmd_threshold(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    dim, rho, state_spec = _build_state(args, config)
    method = str(_resolve(args, config, "method", "wigner"))
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; pick one of {METHODS}")
    scope = str(_resolve(args, config, "scope", "state"))
    tol = float(_resolve(args, config, "tol", 1e-6))
    class_tol = _resolve(args, config, "class_tol", None)
    class_tol = None if class_tol is None else float(class_tol)
    seed = int(_resolve(args, config, "seed", 0))
    restarts = int(_resolve(args, config, "restarts", 32))
    fmt = str(_resolve(args, config, "format", "json"))
    families = tuple(config.get("families", FRAME_FAMILIES))
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown format {fmt!r}")

    opt = OptimizerConfig(restarts=restarts, seed=seed)
    if method == "wigner":
        result = wigner_threshold(rho, scan_step=tol)
    elif method == "polytope":
        result = polytope_threshold(rho, tol=tol)
    elif method == "kd":
        result = kd_threshold(
            rho, config=opt, scope=scope, tol=tol, classification_tol=class_tol
        )
    else:
        result = crit_threshold(
            rho, families=families, config=opt, scope=scope, tol=tol
        )

    resolved = dict(state_spec)
    resolved.update(
        {
            "method": method,
            "scope": scope,
            "tol": tol,
            "class_tol": class_tol,
            "seed": seed,
            "restarts": restarts,
            "format": fmt,
            "families": list(families),
        }
    )
    if fmt == "json":
        report = {
            "schema": 1,
            "version": __version__,
            "config": resolved,
            "result": result_to_dict(result),
        }
        text = dumps(report)
    else:
        preamble = _config_preamble(resolved) + [
            f"kind={result.kind}",
            f"p={result.p!r}",
            f"upper_bound={result.upper_bound}",
        ]
        text = threshold_trace_csv(result, preamble=preamble)
    _emit(text, args.out)
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    dim, rho, state_spec = _build_state(args, config)
    start = float(_resolve(args, config, "start", 0.0))
    stop = float(_resolve(args, config, "stop", 1.0))
    step = float(_resolve(args, config, "step", 0.05))
    fmt = str(_resolve(args, config, "format", "csv"))
    frames = tuple(config.get("scan_frames", SCAN_FRAMES))
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    if not (0.0 <= start < stop <= 1.0):
        raise ValueError("need 0 <= start < stop <= 1")
    if step <= 0:
        raise ValueError("step must be positive")
    unknown = set(frames) - set(SCAN_FRAMES)
    if unknown:
        raise ValueError(f"unknown scan frames: {sorted(unknown)}")

    built = {
        "gross": gross_wigner_frame(dim),
        "kd-mub": canonical_mub_frame(dim),
    }
    intervals = np.floor((stop - start) / step + 1e-9)
    if not intervals < MAX_SCAN_POINTS:
        raise ValueError(
            f"a step of {step:g} over [{start:g}, {stop:g}] gives more than "
            f"{MAX_SCAN_POINTS} grid points"
        )
    count = int(intervals) + 1
    # rounding may push the last point just past stop; pin it back
    grid = [min(start + k * step, stop) for k in range(count)]
    rows = []
    for p in grid:
        rho_p = depolarize(rho, p)
        for name in frames:
            flat = represent_state(built[name], rho_p).flat()
            rows.append(
                (
                    float(p),
                    name,
                    float(np.abs(flat.imag).sum())
                    + float(np.abs(np.minimum(0.0, flat.real)).sum()),
                    float(flat.real.min()),
                    float(np.abs(flat.imag).max()),
                )
            )

    resolved = dict(state_spec)
    resolved.update(
        {
            "start": start,
            "stop": stop,
            "step": step,
            "format": fmt,
            "scan_frames": list(frames),
        }
    )
    if fmt == "json":
        report = {
            "schema": 1,
            "version": __version__,
            "config": resolved,
            "result": {
                "rows": [
                    {
                        "p": p,
                        "frame": name,
                        "witness": wit,
                        "min_real": mre,
                        "max_abs_imag": mim,
                    }
                    for p, name, wit, mre, mim in rows
                ]
            },
        }
        text = dumps(report)
    else:
        text = scan_csv(rows, preamble=_config_preamble(resolved))
    _emit(text, args.out)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    if (args.builtin is None) == (args.frame is None):
        raise ValueError("pass exactly one of --builtin or --frame")
    if args.builtin is not None:
        dim = Dimension(int(args.d if args.d is not None else 3))
        if args.builtin == "gross":
            frame = gross_wigner_frame(dim)
        elif args.builtin == "kd-mub":
            frame = canonical_mub_frame(dim)
        else:
            raise ValueError(f"unknown builtin frame {args.builtin!r}")
        source = {"builtin": args.builtin, "d": dim.d}
    else:
        try:
            data = json.loads(Path(args.frame).read_text())
        except OSError as exc:
            raise ValueError(f"cannot read frame file {args.frame}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"frame file {args.frame} is not valid JSON: {exc}"
            ) from exc
        frame = frame_from_dict(data)
        source = {"builtin": None, "d": frame.dim.d}
    report = validate_frame(frame)
    doc = {
        "schema": 1,
        "version": __version__,
        "config": source,
        "result": {
            "passed": report.passed,
            "report": validation_report_to_dict(report),
        },
    }
    _emit(dumps(doc), args.out)
    return 0 if report.passed else 3


def build_parser() -> _Parser:
    parser = _Parser(
        prog="magicnoise",
        description="Noise thresholds for qudit magic-state nonclassicality.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state_flags(p):
        p.add_argument("--d", type=int, help="odd prime dimension (3, 5, or 7)")
        p.add_argument("--state", choices=MAGIC_STATE_KINDS, help="magic state kind")
        p.add_argument(
            "--vec",
            help="comma-separated components for --state custom, e.g. '0,1,-1'",
        )
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), help="output format")

    th = sub.add_parser("threshold", help="compute one noise threshold")
    add_state_flags(th)
    th.add_argument("--method", choices=METHODS, help="threshold definition to use")
    th.add_argument(
        "--scope",
        choices=("state", "subtheory"),
        help="what the KD witness must classicalize",
    )
    th.add_argument("--tol", type=float, help="Wigner grid step; recorded otherwise")
    th.add_argument(
        "--class-tol",
        dest="class_tol",
        type=float,
        help="kd: witness value below which a frame counts as classical, "
        "in (0, nu_d)",
    )
    th.add_argument("--seed", type=int, help="base seed for the frame search")
    th.add_argument("--restarts", type=int, help="frame-search restarts")
    th.set_defaults(func=cmd_threshold)

    sc = sub.add_parser("scan", help="witness values over a noise grid")
    add_state_flags(sc)
    sc.add_argument("--start", type=float, help="grid start (default 0)")
    sc.add_argument("--stop", type=float, help="grid stop (default 1)")
    sc.add_argument("--step", type=float, help="grid step (default 0.05)")
    sc.set_defaults(func=cmd_scan)

    va = sub.add_parser("validate", help="check frame axioms")
    va.add_argument(
        "--builtin", choices=SCAN_FRAMES, help="validate a built-in frame"
    )
    va.add_argument("--frame", help="validate a frame loaded from a JSON file")
    va.add_argument("--d", type=int, help="dimension for --builtin (default 3)")
    va.add_argument("--out", help="write the report to this file")
    va.set_defaults(func=cmd_validate)

    return parser


def _attach_values(argv: Sequence[str]) -> list[str]:
    """Rewrite `--flag VALUE` as `--flag=VALUE` where argparse would take
    VALUE for an option.

    argparse reads an argument that starts with '-' as an option unless it
    is a plain negative number, so `--class-tol -1e-9` and a vector such
    as `--vec -0.5+0.1j,1,0` would fail with "expected one argument".
    After the subcommand, a VALUE starting with '-' and a digit or '.' is
    attached to the long flag before it, and any VALUE but a long flag to
    `--vec` or its abbreviations `--v` and `--ve`, which argparse also
    accepts there; before the subcommand `--v` stands for `--version`.
    """
    out: list[str] = []
    after_command = False
    for arg in argv:
        prev = out[-1] if out else ""
        takes_it = "--vec".startswith(prev) and not arg.startswith("--")
        negative = arg[:1] == "-" and arg[1:2] in set("0123456789.")
        if (
            after_command
            and len(prev) > 2
            and prev.startswith("--")
            and "=" not in prev
            and (takes_it or negative)
        ):
            out[-1] = f"{prev}={arg}"
        else:
            out.append(arg)
        after_command = after_command or not arg.startswith("-")
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    argv = _attach_values(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return args.func(args)
    except NoThresholdError as exc:
        print(f"magicnoise: no threshold: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError) as exc:
        print(f"magicnoise: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
