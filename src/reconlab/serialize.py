"""JSON wire formats and report flattening.

Writers emit floats with 17 significant digits so every value round-trips
exactly; readers accept anything json.loads produces. Report envelopes embed
a hash of their inputs for provenance.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import fields, is_dataclass
from typing import Optional

import numpy as np

from .errors import ParseError
from .hypomorphism import Hypomorphism
from .matrixcore import Permutation, SymmetricMatrix
from .solidangle import Cone


def _format_float(x: float) -> str:
    if x != x:
        return '"nan"'
    if x == float("inf"):
        return '"inf"'
    if x == float("-inf"):
        return '"-inf"'
    return format(float(x), ".17g")


def _plain(obj):
    """One conversion step towards JSON: a dataclass to a dict of its fields, an
    enum to its value, a numpy array or scalar to Python values. Anything else
    is returned unchanged."""
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    return obj


def dumps(obj) -> str:
    """Deterministic JSON text with 17-significant-digit floats."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {dumps(v)}" for k, v in obj.items()) + "}"
    plain = _plain(obj)
    if plain is obj:
        raise TypeError(f"cannot serialize {type(obj)!r}")
    return dumps(plain)


def content_hash(obj) -> str:
    return hashlib.sha256(dumps(obj).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# wire formats

def matrix_to_dict(A: SymmetricMatrix) -> dict:
    return {"n": A.n, "entries": A.entries.tolist()}


def matrix_from_dict(d: dict) -> SymmetricMatrix:
    try:
        n = int(d["n"])
        entries = np.asarray(d["entries"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad matrix JSON: {exc}", 0)
    if entries.shape != (n, n):
        raise ParseError(f"matrix JSON n={n} but entries shape {entries.shape}", 0)
    return SymmetricMatrix(entries)


def pair_to_dict(A: SymmetricMatrix, B: SymmetricMatrix,
                 sigma: Optional[Hypomorphism]) -> dict:
    return {
        "A": matrix_to_dict(A),
        "B": matrix_to_dict(B),
        "sigma": None if sigma is None else [list(s.image) for s in sigma.sigmas],
    }


def pair_from_dict(d: dict):
    if not isinstance(d, dict):
        raise ParseError(f"bad pair JSON: expected an object, got {type(d).__name__}", 0)
    try:
        A = matrix_from_dict(d["A"])
        B = matrix_from_dict(d["B"])
    except KeyError as exc:
        raise ParseError(f"bad pair JSON: missing {exc}", 0)
    raw = d.get("sigma")
    if raw is None:
        return A, B, None
    try:
        sigma = Hypomorphism(tuple(Permutation(tuple(img)) for img in raw))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad pair JSON: sigma must be a list of integer lists ({exc})", 0)
    return A, B, sigma


def cone_from_dict(d: dict) -> Cone:
    try:
        apex = np.asarray(d["apex"], dtype=float)
        gens = np.asarray(d["generators"], dtype=float)
        dim = d.get("ambient_dim")
        dim = None if dim is None else int(dim)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad cone JSON: {exc}", 0)
    return Cone(apex=apex, generators=gens, ambient_dim=dim)


def report_to_dict(report) -> dict:
    """The report as plain Python values, converted by the same step as `dumps`."""
    report = _plain(report)
    if isinstance(report, (list, tuple)):
        return [report_to_dict(v) for v in report]
    if isinstance(report, dict):
        return {str(k): report_to_dict(v) for k, v in report.items()}
    return report


# ---------------------------------------------------------------------------
# CSV flattening for plots

def _csv_line(values) -> str:
    return ",".join(str(v) for v in values)


def report_to_csv(kind: str, data: dict) -> str:
    """Flatten a report dict into CSV rows. Supported kinds: grid, main, angle,
    suite."""
    lines = []
    if kind == "grid":
        lines.append("lambda,t,abs_residual")
        for i, lam in enumerate(data["lambda_grid"]):
            for j, t in enumerate(data["t_grid"]):
                lines.append(_csv_line([lam, t, data["residuals"][i][j]]))
    elif kind == "main":
        lines.append("t,lambda_n_a,lambda_n_b,eigengap_a,eigengap_b,eigvec_alignment")
        for s in data["samples"]:
            lines.append(_csv_line([s["t"], s["lambda_n_a"], s["lambda_n_b"],
                                    s["eigengap_a"], s["eigengap_b"], s["eigvec_alignment"]]))
    elif kind == "angle":
        lines.append("fraction,abs_norm,std_error,samples,method")
        lines.append(_csv_line([data["fraction"], data["abs_norm"], data["std_error"],
                                data["samples"], data["method"]]))
    elif kind == "suite":
        lines.append("invariant,passed,failed,flagged")
        for name, tally in data["tallies"].items():
            lines.append(_csv_line([name, tally["passed"], tally["failed"], tally["flagged"]]))
    else:
        raise ValueError(f"no CSV flattening for report kind {kind!r}")
    return "\n".join(lines) + "\n"
