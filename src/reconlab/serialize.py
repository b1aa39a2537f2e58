"""JSON wire formats and report flattening.

`dumps` is the standard library's encoder with one conversion step, `_plain`,
for dataclasses, enums and numpy values. Floats are written as Python's
shortest `repr`, which reads back to the same double; a non-finite float is an
error, not a string. `report_to_dict` applies the same step in one walk and
returns the plain values that `dumps` writes, without encoding them: it equals
`json.loads(dumps(r))`, and `dumps(report_to_dict(r))` is `dumps(r)` byte for
byte wherever the keys of r's mappings are strings, as in every report.
Readers accept anything json.loads produces, but a count or an
index (`n`, a sigma entry, `ambient_dim`) must be a JSON integer: 2.7 or true
is a ParseError, never truncated. A matrix or cone entry must be a JSON
number: true, "1" or null is a ParseError, never read as 1.0 or NaN.
"""

from __future__ import annotations

import enum
import functools
import json
from dataclasses import fields, is_dataclass
from math import isfinite
from typing import Optional

import numpy as np

from .errors import ParseError
from .hypomorphism import Hypomorphism
from .matrixcore import Permutation, SymmetricMatrix
from .solidangle import Cone


@functools.cache
def _field_names(cls: type) -> Optional[tuple]:
    """The field names of dataclass `cls`, read once per class; None for any other type."""
    return tuple(f.name for f in fields(cls)) if is_dataclass(cls) else None


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
    names = _field_names(type(obj))  # so a dataclass's class object is no report
    if names is None:
        raise TypeError(f"cannot serialize {type(obj)!r}")
    return {name: getattr(obj, name) for name in names}


def dumps(obj) -> str:
    """Deterministic JSON text; non-finite floats raise `ValueError`."""
    return json.dumps(obj, default=_plain, allow_nan=False)


# ---------------------------------------------------------------------------
# wire formats

def _integer(value) -> int:
    """value if it is a JSON integer; int() would read 2.7 as 2 and true as 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _numbers(value) -> np.ndarray:
    """value as a float array if every entry is a JSON number: float() reads true as 1.0."""
    for x in np.asarray(value, dtype=object).ravel().tolist():
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise TypeError(f"expected a number, got {x!r}")
    return np.asarray(value, dtype=float)


def matrix_to_dict(A: SymmetricMatrix) -> dict:
    return {"n": A.n, "entries": A.entries.tolist()}


def matrix_from_dict(d: dict) -> SymmetricMatrix:
    try:
        n = _integer(d["n"])
        entries = _numbers(d["entries"])
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
        sigma = Hypomorphism(tuple(Permutation(tuple(_integer(k) for k in img)) for img in raw))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad pair JSON: sigma must be a list of integer lists ({exc})", 0)
    return A, B, sigma


def cone_from_dict(d: dict) -> Cone:
    try:
        apex = _numbers(d["apex"])
        gens = _numbers(d["generators"])
        dim = d.get("ambient_dim")
        dim = None if dim is None else _integer(dim)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad cone JSON: {exc}", 0)
    return Cone(apex=apex, generators=gens, ambient_dim=dim)


def report_to_dict(report):
    """The report as plain Python values: exactly what `dumps` writes, read back.

    One walk with the encoder's rules: a float, int or str (subclasses such
    as numpy's float64 included) becomes its plain type, a list or tuple a
    list, a mapping with str keys or a dataclass a dict (a dataclass's
    fields are walked directly, as `_plain` would list them), and anything
    else takes one `_plain` step and is walked again. A non-finite float raises
    `ValueError` and an unknown object `TypeError`, as in `dumps`. A mapping
    with a key that is not a str goes through the round trip itself, so
    json's key rule applies (1 becomes "1", and a later duplicate wins).
    """
    if report is None or isinstance(report, bool):
        return report
    if isinstance(report, float):
        if not isfinite(report):
            raise ValueError(f"Out of range float values are not JSON compliant: {report!r}")
        return float(report)
    # a finite float, most of any report, is taken in place, without a call
    if isinstance(report, (list, tuple)):
        return [float(v) if isinstance(v, float) and isfinite(v) else report_to_dict(v)
                for v in report]
    if isinstance(report, dict):
        if all(type(k) is str for k in report):
            return {k: float(v) if isinstance(v, float) and isfinite(v) else report_to_dict(v)
                    for k, v in report.items()}
        return json.loads(dumps(report))
    if isinstance(report, str):
        return str.__str__(report)
    if isinstance(report, int):  # an IntEnum member too, which json writes as its int
        return int.__int__(report)
    names = _field_names(type(report))
    if names is not None:  # a dataclass: its fields, walked as they are read
        plain = {}
        for name in names:
            v = getattr(report, name)
            plain[name] = float(v) if isinstance(v, float) and isfinite(v) else report_to_dict(v)
        return plain
    return report_to_dict(_plain(report))


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
