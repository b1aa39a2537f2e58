import enum
import json
import math
import runpy
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from reconlab import (
    Graph6Record,
    ParseError,
    Permutation,
    SymmetricMatrix,
    angle_fraction,
    comparison_check,
    displacement_check,
    factor_presentation,
    gen_pair,
    good_position_report,
    lambda0_search,
    partition_check,
    per1_report,
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

from conftest import card_class_tau

ATLAS_DIGESTS = Path(__file__).resolve().parents[1] / "scripts" / "atlas_digests.py"


def round_trip(report):
    """The reference that `report_to_dict` must equal: encode, then parse back."""
    return json.loads(dumps(report))


def assert_flattens_like_the_round_trip(report):
    as_dict = report_to_dict(report)
    expected = round_trip(report)
    assert as_dict == expected
    # repr tells -0.0 from 0.0, 1 from 1.0 and True, a numpy scalar from a float, and
    # shows the key order
    assert repr(as_dict) == repr(expected)
    assert dumps(as_dict) == dumps(report)


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
    for flatten in (round_trip, report_to_dict):
        assert flatten(value).hex() == value.hex()  # sign of zero included
        assert flatten([value, np.float64(value)])[1].hex() == value.hex()


class _Level(enum.IntEnum):
    HIGH = 3


@pytest.mark.parametrize("value, expected", [
    (np.float32(0.1), float(np.float32(0.1))),
    (np.float64(-0.0), -0.0),
    (np.int64(2 ** 62 + 1), 2 ** 62 + 1),
    (np.bool_(True), True),
    (_Colour.RED, "red"),
    (_Level.HIGH, 3),
    ((1, (2.5, "x"), None, False), [1, [2.5, "x"], None, False]),
    (np.array([[0.1, -0.0], [5e-324, 1e308]]), [[0.1, -0.0], [5e-324, 1e308]]),
    (_Outer(_Inner(np.array([1.0 / 3.0, 2.0]), _Colour.RED), np.int64(7)),
     {"inner": {"weights": [1.0 / 3.0, 2.0], "colour": "red"}, "count": 7}),
], ids=["float32", "float64", "int64", "bool_", "enum", "int-enum", "tuple", "ndarray",
        "nested-dataclass"])
def test_converted_values_round_trip(value, expected):
    for flatten in (round_trip, report_to_dict):
        back = flatten(value)
        assert back == expected and repr(back) == repr(expected)  # repr: the types too
        assert flatten({"key": [value]}) == {"key": [expected]}


@pytest.mark.parametrize("mapping", [
    {1: "a", "1": "b", 2.5: [np.float64(1.0)], None: 0, False: _Colour.RED},
    {"a": {-0.0: 1, 7: {"b": np.int64(2)}}},
], ids=["non-str-keys", "nested-non-str-keys"])
def test_non_string_keys_follow_json(mapping):
    # 1 and "1" both become "1": the text holds both, the parsed dict the later value in
    # the earlier place, so only the parsed values can agree
    as_dict = report_to_dict(mapping)
    assert as_dict == round_trip(mapping) and repr(as_dict) == repr(round_trip(mapping))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan"),
                                   np.float32("inf"), np.array([1.0, np.nan]),
                                   _Inner(np.array([np.inf]), _Colour.RED), {1: math.nan}])
def test_non_finite_raises_value_error(value):
    for flatten in (dumps, report_to_dict):
        with pytest.raises(ValueError):
            flatten({"report": [value]})


@pytest.mark.parametrize("value", [object(), {1, 2}, 1j, _Outer, {(1, 2): 0}])
def test_unknown_type_raises_type_error(value):
    for flatten in (dumps, report_to_dict):
        with pytest.raises(TypeError):
            flatten({"report": [value]})


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


EQUILATERAL = SymmetricMatrix(np.array([[1.0, -0.5, -0.5], [-0.5, 1.0, -0.5],
                                        [-0.5, -0.5, 1.0]]))

REPORTS = {
    "grid": lambda: verify_tutte(*_c5_pair()),
    "t-agreement": _t_agreement,
    "main-theorem": lambda: verify_main_theorem(*_c5_pair()),
    "kernel-match": _kernel_match,
    "certificate": lambda: verify_hypomorphism(*_c5_pair()),
    "suite": lambda: run_geometry_suite(seed=5, count=1, mc_samples=2000),
    "estimate": lambda: angle_fraction(Cone(apex=np.zeros(4), generators=np.eye(4) + 0.3),
                                       samples=2000, seed=3),
    "good-position": lambda: good_position_report(EQUILATERAL),
    "interior": lambda: per1_report(SymmetricMatrix(np.eye(3))),
    "partition": lambda: partition_check(factor_presentation(EQUILATERAL), samples=2000, seed=3),
    "comparison": lambda: comparison_check(np.zeros(2), np.eye(2), np.array([0.25, 0.25]),
                                           samples=2000, seed=3),
    "displacement": lambda: displacement_check(np.zeros(3), np.eye(3)[:2],
                                               np.array([0.0, 0.0, 1.0]), samples=2000, seed=3),
}


@pytest.mark.parametrize("kind", sorted(REPORTS))
def test_report_to_dict_serialises_like_the_report(kind):
    report = REPORTS[kind]()
    assert_flattens_like_the_round_trip(report)
    # plain Python values only, so the standard library can encode it too
    assert json.loads(json.dumps(report_to_dict(report))) == round_trip(report)


def test_report_to_dict_on_the_atlas_pipeline():
    # the pipeline of scripts/atlas_digests.py on every atlas graph on 3-6 vertices, each
    # paired with itself under a card-class relabelling, so that every step runs
    nx = pytest.importorskip("networkx")
    pipeline = runpy.run_path(str(ATLAS_DIGESTS))["pipeline"]
    rng = np.random.default_rng(20261022)
    graphs = [g for g in nx.graph_atlas_g() if 3 <= g.number_of_nodes() <= 6]
    assert len(graphs) == 205
    for g in graphs:
        n = g.number_of_nodes()
        graph = Graph6Record(n, nx.to_numpy_array(g, nodelist=range(n), dtype=int))
        A, B, sigma = gen_pair(graph, card_class_tau(g, rng))
        reports = pipeline(A, B, sigma)
        del reports["lambda0"]  # a bare float
        assert len(reports) == 6 and not any(isinstance(r, dict) for r in reports.values())
        for report in reports.values():
            assert_flattens_like_the_round_trip(report)
