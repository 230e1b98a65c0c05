"""JSON and CSV codecs for the public value types.

All encoders produce plain dict/list/str/float structures so json.dumps with
sorted keys yields byte-stable output for identical inputs. Complex arrays
are stored as separate real and imaginary parts, row-major.
"""

from __future__ import annotations

import json
from array import array
from typing import Iterable, Sequence

import numpy as np

from .frames import ExactFrame
from .qudit import Dimension, Operator
from .thresholds import ThresholdResult


def _unsigned_zero(x) -> float:
    """x as a float, with -0.0 written as 0.0: the sign of a zero comes from
    the order of a sum, and would make equal values print differently."""
    return float(x) + 0.0


def jsonable(value):
    """Recursively coerce numpy scalars/arrays, float arrays and tuples into
    JSON types; -0.0 becomes 0.0."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (np.ndarray, array)):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.bool_, bool)):  # before int: bool is an int subclass
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return _unsigned_zero(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.complexfloating, complex)):
        return {"re": _unsigned_zero(value.real), "im": _unsigned_zero(value.imag)}
    return value


def dumps(obj) -> str:
    """Sorted, indented JSON; a non-finite float raises ValueError rather
    than becoming the non-JSON tokens Infinity or NaN."""
    return json.dumps(jsonable(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def operator_to_dict(op: Operator) -> dict:
    return {
        "d": op.dim.d,
        "re": op.entries.real.tolist(),
        "im": op.entries.imag.tolist(),
        "role": op.role,
    }


def as_int(name: str, value) -> int:
    """value as an int, naming name if it is not one: bools and the floats
    int() would truncate or fail on are refused, but 3.0 reads as 3."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name}: {exc}") from exc


def _require(data, what: str, keys: Sequence[str]) -> None:
    """Check that data is a JSON object holding every one of keys."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(data).__name__}")
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} has no key {key!r}")


def operator_from_dict(data: dict) -> Operator:
    _require(data, "operator", ("d", "re", "im"))
    d = as_int("d", data["d"])
    re = np.array(data["re"], dtype=float)
    im = np.array(data["im"], dtype=float)
    role = str(data.get("role", "generic"))
    if re.shape != (d, d) or im.shape != (d, d):
        raise ValueError("operator entries must be d x d")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError(f"{role} operator has non-finite entries")
    return Operator(Dimension(d), re + 1j * im, role=role)


def _operators(data: dict, key: str) -> tuple[Operator, ...]:
    """The operators of data[key], a failure naming the one at fault."""
    ops = []
    for k, entry in enumerate(data[key]):
        try:
            ops.append(operator_from_dict(entry))
        except ValueError as exc:
            raise ValueError(f"frame operator {key}[{k}]: {exc}") from exc
    return tuple(ops)


def frame_to_dict(frame: ExactFrame) -> dict:
    return {
        "d": frame.dim.d,
        "descriptor": jsonable(frame.descriptor),
        "F": [operator_to_dict(op) for op in frame.analysis],
        "D": [operator_to_dict(op) for op in frame.synthesis],
    }


def frame_from_dict(data: dict) -> ExactFrame:
    _require(data, "frame", ("d", "F", "D"))
    dim = Dimension(as_int("d", data["d"]))
    analysis = _operators(data, "F")
    synthesis = _operators(data, "D")
    descriptor = dict(data.get("descriptor", {"kind": "unknown"}))
    return ExactFrame(dim, analysis, synthesis, descriptor)


def result_to_dict(result: ThresholdResult) -> dict:
    return {
        "kind": result.kind,
        "p": float(result.p),
        "certificate": jsonable(result.certificate),
        "tol": float(result.tol),
    }


def _stored(value):
    """value as a computed certificate holds it: a non-empty list of floats
    as an array('d'), a non-empty list of those as a tuple of them."""
    if isinstance(value, dict):
        return {key: _stored(v) for key, v in value.items()}
    if not (isinstance(value, list) and value):
        return value
    if all(type(v) is float for v in value):
        return array("d", value)
    rows = tuple(map(_stored, value))
    return rows if all(isinstance(row, array) for row in rows) else value


def result_from_dict(data: dict) -> ThresholdResult:
    """Inverse of result_to_dict: the result read back compares equal. The
    scan, upper_bound and seed keys of older reports are ignored, and so is
    the copy of p their polytope certificates held as noise."""
    _require(data, "report", ("kind", "p", "certificate", "tol"))
    _require(data["certificate"], "certificate", ())
    kind = str(data["kind"])
    certificate = dict(data["certificate"])
    if kind == "polytope":
        certificate.pop("noise", None)
    return ThresholdResult(
        kind=kind,
        p=float(data["p"]),
        certificate=_stored(certificate),
        tol=float(data["tol"]),
    )


def _float_str(x: float) -> str:
    return repr(_unsigned_zero(x))


def csv_table(header: Sequence[str], rows: Iterable[tuple], preamble: Sequence[str] = ()) -> str:
    """CSV of rows under header, after one `# ` comment line per preamble
    entry; floats are written by repr, -0.0 as 0.0."""
    lines = [f"# {line}" for line in preamble]
    lines.append(",".join(header))
    for row in rows:
        cells = (_float_str(v) if isinstance(v, float) else str(v) for v in row)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# The columns of a scan row, in the CSV header and as the JSON row keys.
SCAN_COLUMNS = ("p", "frame", "witness", "min_real", "max_abs_imag")


def scan_csv(rows: Iterable[tuple], preamble: Sequence[str] = ()) -> str:
    """CSV export of witness scans, one column per SCAN_COLUMNS entry."""
    return csv_table(SCAN_COLUMNS, rows, preamble)
