import enum
import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from reconlab import (
    ParseError,
    Permutation,
    SymmetricMatrix,
    angle_fraction,
    lambda0_search,
    run_geometry_suite,
    verify_hypomorphism,
    verify_main1_t_agreement,
    verify_main2,
    verify_main_theorem,
    verify_tutte,
)
from reconlab.hypomorphism import cycle_adjacency, matrix_pair
from reconlab.serialize import (
    cone_from_dict,
    dumps,
    matrix_from_dict,
    matrix_to_dict,
    pair_from_dict,
    pair_to_dict,
    report_to_csv,
    report_to_dict,
)
from reconlab.solidangle import Cone
from reconlab.verifiers import good_position_shift


def test_floats_round_trip_exactly():
    values = [1.0 / 3.0, 1e-300, 123456.789012345678, -0.1, 2.0 ** 53 + 1.0]
    text = dumps(values)
    assert json.loads(text) == values


def test_shortest_repr():
    assert dumps(1.0 / 3.0) == "0.3333333333333333"
    assert dumps(1.0) == "1.0"


class _Colour(enum.Enum):
    RED = "red"


@dataclass(frozen=True)
class _Inner:
    weights: np.ndarray
    colour: _Colour


@dataclass(frozen=True)
class _Outer:
    inner: _Inner
    count: np.int64


@pytest.mark.parametrize("value", [-0.0, 5e-324, 2.0 ** 53 + 1.0, 1e308])
def test_float_bits_round_trip(value):
    assert json.loads(dumps(value)).hex() == value.hex()  # sign of zero included


@pytest.mark.parametrize("value, expected", [
    (np.float32(0.1), float(np.float32(0.1))),
    (np.int64(2 ** 62 + 1), 2 ** 62 + 1),
    (np.bool_(True), True),
    (_Colour.RED, "red"),
    (np.array([[0.1, -0.0], [5e-324, 1e308]]), [[0.1, -0.0], [5e-324, 1e308]]),
    (_Outer(_Inner(np.array([1.0 / 3.0, 2.0]), _Colour.RED), np.int64(7)),
     {"inner": {"weights": [1.0 / 3.0, 2.0], "colour": "red"}, "count": 7}),
], ids=["float32", "int64", "bool_", "enum", "ndarray", "nested-dataclass"])
def test_converted_values_round_trip(value, expected):
    back = json.loads(dumps(value))
    assert back == expected and type(back) is type(expected)
    assert json.loads(dumps({"key": [value]})) == {"key": [expected]}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan"),
                                   np.float32("inf"), np.array([1.0, np.nan])])
def test_non_finite_raises_value_error(value):
    with pytest.raises(ValueError):
        dumps({"report": [value]})


@pytest.mark.parametrize("value", [object(), {1, 2}, 1j, _Outer])
def test_unknown_type_raises_type_error(value):
    with pytest.raises(TypeError):
        dumps({"report": [value]})


def test_matrix_round_trip():
    a = SymmetricMatrix(np.array([[1.0, 1.0 / 3.0], [1.0 / 3.0, 2.0]]))
    d = json.loads(dumps(matrix_to_dict(a)))
    b = matrix_from_dict(d)
    assert np.array_equal(a.entries, b.entries)


def test_matrix_shape_mismatch_rejected():
    with pytest.raises(ParseError):
        matrix_from_dict({"n": 3, "entries": [[1.0, 0.0], [0.0, 1.0]]})


@pytest.mark.parametrize("value", [True, False, "1", None, [1.0]],
                         ids=["true", "false", "string", "null", "list"])
def test_non_number_matrix_entry_is_parse_error(value):
    # np.asarray(..., dtype=float) would read true and "1" as 1.0 and null as NaN
    entries = [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
    entries[0][1] = value
    with pytest.raises(ParseError, match="expected a number"):
        matrix_from_dict({"n": 3, "entries": entries})


@pytest.mark.parametrize("key", ["apex", "generators"])
@pytest.mark.parametrize("value", [True, "1", None], ids=["true", "string", "null"])
def test_non_number_cone_entry_is_parse_error(key, value):
    d = {"apex": [0.0, 0.0], "generators": [[1.0, 0.0], [0.0, 1.0]]}
    if key == "apex":
        d["apex"][1] = value
    else:
        d["generators"][1][0] = value
    with pytest.raises(ParseError, match="expected a number"):
        cone_from_dict(d)


def test_integer_entries_are_numbers():
    ints = matrix_from_dict({"n": 2, "entries": [[0, 1], [1, -3]]})
    assert ints.entries.tolist() == [[0.0, 1.0], [1.0, -3.0]]
    cone = cone_from_dict({"apex": [0, 0], "generators": [[1, 0], [0, 2]]})
    assert cone.generators.tolist() == [[1.0, 0.0], [0.0, 2.0]]


def test_pair_round_trip():
    A, B, sigma = matrix_pair(cycle_adjacency(5), Permutation.swap(5, 1, 3))
    d = json.loads(dumps(pair_to_dict(A, B, sigma)))
    A2, B2, sigma2 = pair_from_dict(d)
    assert np.array_equal(A.entries, A2.entries)
    assert np.array_equal(B.entries, B2.entries)
    assert all(s1.image == s2.image for s1, s2 in zip(sigma.sigmas, sigma2.sigmas))


def test_pair_null_sigma():
    A = cycle_adjacency(5)
    d = json.loads(dumps(pair_to_dict(A, A, None)))
    _, _, sigma = pair_from_dict(d)
    assert sigma is None


def test_cone_round_trip():
    text = '{"apex": [0.0, 0.0, 0.0], "generators": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], ' \
           '"ambient_dim": 3}'
    c = cone_from_dict(json.loads(text))
    assert c.ambient_dim == 3 and np.array_equal(c.generators, np.eye(3)[:2])


def test_grid_csv():
    data = {"lambda_grid": [0.0, 1.0], "t_grid": [2.0], "residuals": [[0.0], [1e-12]]}
    text = report_to_csv("grid", data)
    lines = text.strip().splitlines()
    assert lines[0] == "lambda,t,abs_residual"
    assert len(lines) == 3


def test_unknown_csv_kind():
    with pytest.raises(ValueError):
        report_to_csv("nope", {})


def _c5_pair():
    return matrix_pair(cycle_adjacency(5), Permutation.swap(5, 1, 3))


def _t_agreement():
    A, B, sigma = _c5_pair()
    lam = max(lambda0_search(A), lambda0_search(B)) + 1.0
    return verify_main1_t_agreement(A, B, sigma, lam)


def _kernel_match():
    A, B, sigma = _c5_pair()
    lam = max(lambda0_search(A), lambda0_search(B)) + 1.0
    return verify_main2(good_position_shift(A, lam), good_position_shift(B, lam), sigma)


REPORTS = {
    "grid": lambda: verify_tutte(*_c5_pair()),
    "t-agreement": _t_agreement,
    "main-theorem": lambda: verify_main_theorem(*_c5_pair()),
    "kernel-match": _kernel_match,
    "certificate": lambda: verify_hypomorphism(*_c5_pair()),
    "suite": lambda: run_geometry_suite(seed=5, count=1, mc_samples=2000),
    "estimate": lambda: angle_fraction(Cone(apex=np.zeros(4), generators=np.eye(4) + 0.3),
                                       samples=2000, seed=3),
}


@pytest.mark.parametrize("kind", sorted(REPORTS))
def test_report_to_dict_serialises_like_the_report(kind):
    report = REPORTS[kind]()
    as_dict = report_to_dict(report)
    assert dumps(as_dict) == dumps(report)
    # plain Python values only, so the standard library can encode it too
    assert json.loads(json.dumps(as_dict)) == json.loads(dumps(report))
