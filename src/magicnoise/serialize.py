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

from .frames import ExactFrame, FrameValidationReport
from .qudit import Dimension, Operator
from .representations import QuasiDistribution
from .thresholds import ThresholdResult


def jsonable(value):
    """Recursively coerce numpy scalars/arrays, float arrays and tuples into
    JSON types."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (np.ndarray, array)):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.bool_, bool)):  # before int: bool is an int subclass
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.complexfloating, complex)):
        return {"re": float(value.real), "im": float(value.imag)}
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


def operator_from_dict(data: dict) -> Operator:
    d = int(data["d"])
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
    d = int(data["d"])
    dim = Dimension(d)
    analysis = _operators(data, "F")
    synthesis = _operators(data, "D")
    labels = tuple((k // d, k % d) for k in range(d * d))
    descriptor = dict(data.get("descriptor", {"kind": "unknown"}))
    return ExactFrame(dim, labels, analysis, synthesis, descriptor)


def distribution_to_dict(dist: QuasiDistribution) -> dict:
    flat = dist.flat()
    return {
        "labels": [list(l) if isinstance(l, tuple) else l for l in dist.labels],
        "re": flat.real.tolist(),
        "im": flat.imag.tolist(),
        "subject": dist.subject,
    }


def distribution_from_dict(data: dict) -> QuasiDistribution:
    values = np.array(data["re"], dtype=float) + 1j * np.array(data["im"], dtype=float)
    labels = tuple(tuple(l) if isinstance(l, list) else l for l in data["labels"])
    return QuasiDistribution(labels, values, str(data["subject"]))


def result_to_dict(result: ThresholdResult) -> dict:
    return {
        "kind": result.kind,
        "p": float(result.p),
        "certificate": jsonable(result.certificate),
        "scan": [[float(p), float(w)] for p, w in result.scan],
        "tol": float(result.tol),
    }


def result_from_dict(data: dict) -> ThresholdResult:
    """Inverse of result_to_dict; the upper_bound and seed keys of older
    reports are ignored."""
    return ThresholdResult(
        kind=str(data["kind"]),
        p=float(data["p"]),
        certificate=dict(data["certificate"]),
        scan=tuple((float(p), float(w)) for p, w in data["scan"]),
        tol=float(data["tol"]),
    )


def validation_report_to_dict(report: FrameValidationReport) -> dict:
    return jsonable(report.to_dict())


def _float_str(x: float) -> str:
    return repr(float(x))


def threshold_trace_csv(result: ThresholdResult, preamble: Sequence[str] = ()) -> str:
    """CSV export of a threshold scan trace with header `p,witness`."""
    lines = [f"# {line}" for line in preamble]
    lines.append("p,witness")
    for p, w in result.scan:
        lines.append(f"{_float_str(p)},{_float_str(w)}")
    return "\n".join(lines) + "\n"


def scan_csv(rows: Iterable[tuple], preamble: Sequence[str] = ()) -> str:
    """CSV export of witness scans: p,frame,witness,min_real,max_abs_imag."""
    lines = [f"# {line}" for line in preamble]
    lines.append("p,frame,witness,min_real,max_abs_imag")
    for p, frame_name, witness, min_real, max_imag in rows:
        lines.append(
            ",".join(
                [
                    _float_str(p),
                    str(frame_name),
                    _float_str(witness),
                    _float_str(min_real),
                    _float_str(max_imag),
                ]
            )
        )
    return "\n".join(lines) + "\n"
