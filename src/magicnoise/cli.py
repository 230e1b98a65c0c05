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
import math
import sys
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

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
    crit_threshold,
    kd_threshold,
    polytope_threshold,
    wigner_threshold,
)

METHODS = ("wigner", "polytope", "kd", "crit")
FORMATS = ("json", "csv")
SCOPES = ("state", "subtheory")
BUILTIN_FRAMES = {"gross": gross_wigner_frame, "kd-mub": canonical_mub_frame}
# Largest noise grid `scan` evaluates: a step of 1e-4 over [0, 1].
MAX_SCAN_POINTS = 10_001


class Setting(NamedTuple):
    """One setting of a subcommand: the flag --name (underscores as
    dashes) beats the config-file key name, which beats default."""

    name: str
    kind: type
    default: object
    help: str
    choices: Optional[tuple] = None


_D = Setting("d", int, 3, "odd prime dimension (3, 5, or 7)")
_FORMAT = Setting("format", str, "json", "output format", FORMATS)
STATE_SETTINGS = (
    _D,
    Setting("state", str, "strange", "magic state kind", MAGIC_STATE_KINDS),
    Setting(
        "vec", str, None, "comma-separated components for --state custom, e.g. '0,1,-1'"
    ),
)
THRESHOLD_SETTINGS = (
    _FORMAT,
    Setting("method", str, "wigner", "threshold definition to use", METHODS),
    Setting("scope", str, "state", "what the KD witness must classicalize", SCOPES),
    Setting("tol", float, 1e-6, "Wigner grid step; recorded otherwise"),
    Setting("restarts", int, 32, "frame-search restarts"),
)
SCAN_SETTINGS = (
    _FORMAT._replace(default="csv"),
    Setting("start", float, 0.0, "grid start (default 0)"),
    Setting("stop", float, 1.0, "grid stop (default 1)"),
    Setting("step", float, 0.05, "grid step (default 0.05)"),
)
VALIDATE_SETTINGS = (
    Setting("builtin", str, None, "validate a built-in frame", tuple(BUILTIN_FRAMES)),
    Setting("frame", str, None, "validate a frame loaded from a JSON file"),
    _D._replace(help="dimension for --builtin (default 3)"),
)
CONFIG_KEYS = {"schema"} | {
    s.name for s in STATE_SETTINGS + THRESHOLD_SETTINGS + SCAN_SETTINGS
}


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits with code 1 on bad arguments."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _read_json(path: str, what: str):
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} {path} is not valid JSON: {exc}") from exc


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    data = _read_json(path, "config file")
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    schema = data.get("schema")
    if schema != 1 or isinstance(schema, bool):
        raise ValueError('config file must declare "schema": 1')
    unknown = set(data) - CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return data


def _convert(setting: Setting, value):
    """value as setting.kind, naming the setting if it cannot be. Numbers
    refuse bools, and integers refuse the fractional and non-finite floats
    that int() would truncate or fail on."""
    kind = setting.kind
    fractional = kind is int and isinstance(value, float) and not value.is_integer()
    if fractional or kind in (int, float) and isinstance(value, bool):
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{setting.name} must be {what}, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{setting.name}: {exc}") from exc


def _resolve(args: argparse.Namespace, config: dict, settings) -> dict:
    """The value of each setting: its flag, else its config-file entry
    (null counts as absent), else its default."""
    resolved = {}
    for setting in settings:
        value = getattr(args, setting.name, None)
        if value is None:
            value = config.get(setting.name)
        if value is None:
            value = setting.default
        resolved[setting.name] = None if value is None else _convert(setting, value)
    return resolved


def _parse_vec(text: str) -> np.ndarray:
    """Comma-separated complex components; a trailing i is the imaginary
    unit (0.5i, 1+2i), so inf, infinity and nan reach magic_state's
    finiteness check."""
    parts = [tok.strip() for tok in text.split(",")]
    if any(not tok for tok in parts):
        raise ValueError(f"empty component in vector {text!r}")
    try:
        vals = [complex(tok[:-1] + "j" if tok.endswith("i") else tok) for tok in parts]
    except ValueError as exc:
        raise ValueError(f"cannot parse vector {text!r}: {exc}") from exc
    return np.array(vals, dtype=complex)


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _report(config: dict, result: dict) -> str:
    doc = {"schema": 1, "version": __version__, "config": config, "result": result}
    return dumps(doc)


def _config_preamble(resolved: dict) -> list[str]:
    """Echo the tool version and the full effective config into CSV comments."""
    lines = [f"version={__version__}"]
    for key in sorted(resolved):
        lines.append(f"{key}={resolved[key]!r}")
    return lines


def _build_state(cfg: dict):
    if cfg["state"] not in MAGIC_STATE_KINDS:
        raise ValueError(f"unknown state kind {cfg['state']!r}")
    dim = Dimension(cfg["d"])
    vec = None if cfg["vec"] is None else _parse_vec(cfg["vec"])
    return dim, magic_state(cfg["state"], dim, custom_vec=vec)


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")


def cmd_threshold(args: argparse.Namespace) -> int:
    cfg = _resolve(args, _load_config(args.config), STATE_SETTINGS + THRESHOLD_SETTINGS)
    _, rho = _build_state(cfg)
    method, scope, tol = cfg["method"], cfg["scope"], cfg["tol"]
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; pick one of {METHODS}")
    _check_format(cfg["format"])
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; pick one of {SCOPES}")

    opt = OptimizerConfig(restarts=cfg["restarts"])
    if method == "wigner":
        result = wigner_threshold(rho, scan_step=tol)
    elif method == "polytope":
        result = polytope_threshold(rho, tol=tol)
    elif method == "kd":
        result = kd_threshold(rho, config=opt, scope=scope, tol=tol)
    else:
        result = crit_threshold(rho, config=opt, scope=scope, tol=tol)

    if cfg["format"] == "json":
        text = _report(cfg, result_to_dict(result))
    else:
        preamble = _config_preamble(cfg) + [
            f"kind={result.kind}",
            f"p={result.p!r}",
        ]
        text = threshold_trace_csv(result, preamble=preamble)
    _emit(text, args.out)
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    cfg = _resolve(args, _load_config(args.config), STATE_SETTINGS + SCAN_SETTINGS)
    dim, rho = _build_state(cfg)
    start, stop, step = cfg["start"], cfg["stop"], cfg["step"]
    _check_format(cfg["format"])
    if not (0.0 <= start < stop <= 1.0):
        raise ValueError("need 0 <= start < stop <= 1")
    if step <= 0:
        raise ValueError("step must be positive")
    if not math.isfinite(step):
        raise ValueError(f"step must be finite, got {step!r}")

    built = {name: frame(dim) for name, frame in BUILTIN_FRAMES.items()}
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
        for name, frame in built.items():
            dist = represent_state(frame, rho_p)
            flat = dist.flat()
            rows.append(
                (
                    float(p),
                    name,
                    penalty(dist),
                    float(flat.real.min()),
                    float(np.abs(flat.imag).max()),
                )
            )

    if cfg["format"] == "json":
        keys = ("p", "frame", "witness", "min_real", "max_abs_imag")
        text = _report(cfg, {"rows": [dict(zip(keys, row)) for row in rows]})
    else:
        text = scan_csv(rows, preamble=_config_preamble(cfg))
    _emit(text, args.out)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = _resolve(args, {}, VALIDATE_SETTINGS)
    if (cfg["builtin"] is None) == (cfg["frame"] is None):
        raise ValueError("pass exactly one of --builtin or --frame")
    if cfg["builtin"] is not None:
        frame = BUILTIN_FRAMES[cfg["builtin"]](Dimension(cfg["d"]))
    else:
        frame = frame_from_dict(_read_json(cfg["frame"], "frame file"))
    report = validate_frame(frame)
    source = {"builtin": cfg["builtin"], "d": frame.dim.d}
    result = {"passed": report.passed, "report": validation_report_to_dict(report)}
    _emit(_report(source, result), args.out)
    return 0 if report.passed else 3


def _add_flags(parser: argparse.ArgumentParser, settings) -> None:
    for s in settings:
        parser.add_argument(
            "--" + s.name.replace("_", "-"),
            dest=s.name,
            type=s.kind,
            choices=s.choices,
            help=s.help,
        )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="magicnoise",
        description="Noise thresholds for qudit magic-state nonclassicality.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, settings, func in (
        ("threshold", "compute one noise threshold", THRESHOLD_SETTINGS, cmd_threshold),
        ("scan", "witness values over a noise grid", SCAN_SETTINGS, cmd_scan),
    ):
        cmd = sub.add_parser(name, help=help_text)
        _add_flags(cmd, STATE_SETTINGS)
        cmd.add_argument("--config", help="JSON config file; flags override it")
        cmd.add_argument("--out", help="write output to this file instead of stdout")
        _add_flags(cmd, settings)
        cmd.set_defaults(func=func)

    va = sub.add_parser("validate", help="check frame axioms")
    _add_flags(va, VALIDATE_SETTINGS)
    va.add_argument("--out", help="write the report to this file")
    va.set_defaults(func=cmd_validate)

    return parser


def _attach_values(argv: Sequence[str]) -> list[str]:
    """Rewrite `--flag VALUE` as `--flag=VALUE` where argparse would take
    VALUE for an option.

    argparse reads an argument that starts with '-' as an option unless it
    is a plain negative number, so `--tol -1e-9` and a vector such
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
