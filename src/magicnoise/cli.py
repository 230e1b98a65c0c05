"""Command-line interface.

Subcommands:
  threshold  compute one noise threshold (wigner | polytope | kd | crit)
  scan       tabulate witness values over a noise grid for fixed frames
  validate   check frame axioms for a built-in or serialized frame

Exit codes: 0 success, 1 invalid input or an internal certificate failure,
2 no threshold exists in range, 3 frame validation failure. Output is
deterministic: rerunning the same command yields byte-identical bytes (no
timestamps, sorted JSON keys).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import __version__
from .frames import canonical_mub_frame, gross_wigner_frame, validate_frame
from .qudit import MAGIC_STATE_KINDS, Dimension, magic_state, maximally_mixed
from .representations import penalty, represent_state
from .serialize import SCAN_COLUMNS, as_int, csv_table, dumps, frame_from_dict
from .serialize import result_to_dict, scan_csv
from .thresholds import (
    KINDS,
    SCOPES,
    NoThresholdError,
    crit_threshold,
    kd_threshold,
    polytope_threshold,
    wigner_threshold,
)

FORMATS = ("json", "csv")
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
    Setting("method", str, "wigner", "threshold definition to use", KINDS),
    Setting("scope", str, "state", "what the KD witness must classicalize", SCOPES),
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
    """value as setting.kind, naming the setting if it cannot be: integers
    follow serialize.as_int, and numbers refuse bools."""
    kind = setting.kind
    if kind is int:
        return as_int(setting.name, value)
    if kind is float and isinstance(value, bool):
        raise ValueError(f"{setting.name} must be a number, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{setting.name}: {exc}") from exc


def _resolve(args: argparse.Namespace, config: dict, settings) -> dict:
    """The value of each setting: its flag, else its config-file entry
    (null counts as absent), else its default. A config value must convert
    and be one of the setting's choices, as argparse demands of a flag,
    even where a flag overrides it."""
    resolved = {}
    for setting in settings:
        given = (getattr(args, setting.name, None), config.get(setting.name), setting.default)
        values = [_convert(setting, v) for v in given if v is not None]
        for value in values:
            if setting.choices and value not in setting.choices:
                raise ValueError(
                    f"unknown {setting.name} {value!r}; pick one of {setting.choices}"
                )
        resolved[setting.name] = values[0] if values else None
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
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc}") from exc


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
    dim = Dimension(cfg["d"])
    vec = None if cfg["vec"] is None else _parse_vec(cfg["vec"])
    return dim, magic_state(cfg["state"], dim, custom_vec=vec)


def cmd_threshold(args: argparse.Namespace) -> int:
    cfg = _resolve(args, _load_config(args.config), STATE_SETTINGS + THRESHOLD_SETTINGS)
    _, rho = _build_state(cfg)
    method, scope = cfg["method"], cfg["scope"]
    if method == "wigner":
        result = wigner_threshold(rho)
    elif method == "polytope":
        result = polytope_threshold(rho)
    elif method == "kd":
        result = kd_threshold(rho, scope=scope)
    else:
        result = crit_threshold(rho, scope=scope)

    if cfg["format"] == "json":
        text = _report(cfg, result_to_dict(result))
    else:
        preamble = _config_preamble(cfg) + [
            f"kind={result.kind}",
            f"p={result.p!r}",
        ]
        text = csv_table(("kind", "p"), [(result.kind, result.p)], preamble)
    _emit(text, args.out)
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    cfg = _resolve(args, _load_config(args.config), STATE_SETTINGS + SCAN_SETTINGS)
    dim, rho = _build_state(cfg)
    start, stop, step = cfg["start"], cfg["stop"], cfg["step"]
    if not (0.0 <= start < stop <= 1.0):
        raise ValueError("need 0 <= start < stop <= 1")
    if step <= 0:
        raise ValueError("step must be positive")
    if not math.isfinite(step):
        raise ValueError(f"step must be finite, got {step!r}")

    intervals = np.floor((stop - start) / step + 1e-9)
    if not intervals < MAX_SCAN_POINTS:
        raise ValueError(
            f"a step of {step:g} over [{start:g}, {stop:g}] gives more than "
            f"{MAX_SCAN_POINTS} grid points"
        )
    count = int(intervals) + 1
    # rounding may push the last point just past stop; pin it back
    grid = [min(start + k * step, stop) for k in range(count)]
    # a representation is linear in the state, so the rows need only two
    # per frame: mu(rho_p) = (1-p) mu(rho) + p mu(1/d)
    states = (rho, maximally_mixed(dim))
    linear = []
    for name, build in BUILTIN_FRAMES.items():
        frame = build(dim)
        mu = [represent_state(frame, state) for state in states]
        linear.append((name, *mu))
    rows = []
    for p in grid:
        for name, mu_rho, mu_mixed in linear:
            values = (1.0 - p) * mu_rho + p * mu_mixed
            extremes = float(values.real.min()), float(np.abs(values.imag).max())
            rows.append((p, name, penalty(values), *extremes))

    if cfg["format"] == "json":
        text = _report(cfg, {"rows": [dict(zip(SCAN_COLUMNS, row)) for row in rows]})
    else:
        text = scan_csv(rows, preamble=_config_preamble(cfg))
    _emit(text, args.out)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = _resolve(args, {}, VALIDATE_SETTINGS)
    if (cfg["builtin"] is None) == (cfg["frame"] is None):
        raise ValueError("pass exactly one of --builtin or --frame")
    if cfg["frame"] is not None and args.d is not None:
        raise ValueError("--d applies to --builtin only; a frame file carries its own d")
    if cfg["builtin"] is not None:
        frame = BUILTIN_FRAMES[cfg["builtin"]](Dimension(cfg["d"]))
    else:
        frame = frame_from_dict(_read_json(cfg["frame"], "frame file"))
    report = validate_frame(frame)
    source = {"builtin": cfg["builtin"], "d": frame.dim.d}
    result = {"passed": report["passed"], "report": report}
    _emit(_report(source, result), args.out)
    return 0 if report["passed"] else 3


def _add_flags(parser: argparse.ArgumentParser, settings) -> None:
    for s in settings:
        parser.add_argument(
            "--" + s.name.replace("_", "-"),
            dest=s.name,
            type=s.kind,
            choices=s.choices,
            help=s.help,
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    is a plain negative number, so `--start -0.5` and a vector such
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
    """Run one command; a parse error (argparse's usage and error lines,
    exit status 2) returns 1, as every invalid input does."""
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
    except (ValueError, KeyError, TypeError, RuntimeError) as exc:
        print(f"magicnoise: error: {exc}", file=sys.stderr)
        return 1


def run() -> int:
    """The process entry, for `python -m magicnoise` and the console script:
    main(), then gc.freeze(). Freezing moves every live object to the
    permanent generation, which the interpreter's collections at exit skip;
    the process ends next, so nothing needs them. In-process callers use
    main, which leaves the collector alone."""
    code = main()
    gc.freeze()
    return code
