"""JSON wire formats and report flattening.

`dumps` is the standard library's encoder with one conversion step for
dataclasses, enums and numpy values. Floats are written as Python's shortest
`repr`, which reads back to the same double; a non-finite float is an error,
not a string. Readers accept anything json.loads produces.
"""

from __future__ import annotations

import enum
import json
from dataclasses import fields, is_dataclass
from typing import Optional

import numpy as np

from .errors import ParseError
from .hypomorphism import Hypomorphism
from .matrixcore import Permutation, SymmetricMatrix
from .solidangle import Cone


def _plain(obj):
    """One conversion step towards JSON, the encoder's `default`: a dataclass to a
    dict of its fields, an enum to its value, a numpy array or scalar to Python
    values. Anything else raises `TypeError`."""
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj) -> str:
    """Deterministic JSON text; non-finite floats raise `ValueError`."""
    return json.dumps(obj, default=_plain, allow_nan=False)


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


def report_to_dict(report):
    """The report as plain Python values: exactly what `dumps` writes, read back."""
    return json.loads(dumps(report))


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
