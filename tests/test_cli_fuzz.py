"""Every input ends in a typed outcome: exit 0, 1 or 2, never a traceback.

Arbitrary JSON values and one-leaf mutations of valid input files go to the
JSON-reading subcommands; arbitrary bytes go to the graph6 readers, and
arbitrary `--tau` text to gen-pair. Exit 2
(returned, or raised by argparse) must write exactly one JSON object to stderr.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reconlab.cli import main
from reconlab.graph6 import graph6_encode
from reconlab.hypomorphism import cycle_adjacency, matrix_pair
from reconlab.matrixcore import Permutation
from reconlab.serialize import matrix_to_dict, pair_to_dict

_KEYS = st.sampled_from(["n", "entries", "A", "B", "sigma", "apex", "generators",
                         "ambient_dim"]) | st.text(max_size=3)
_LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(-3, 9)
           | st.floats() | st.text(max_size=4))
JSON_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=12)

_A, _B, _SIGMA = matrix_pair(cycle_adjacency(5), Permutation.swap(5, 1, 3))
VALID = {
    "pair": pair_to_dict(_A, _B, _SIGMA),
    "matrix": matrix_to_dict(_A),
    "cone": {"apex": [0.0, 0.0, 0.0, 0.0],
             "generators": [[1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0],
                            [0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0]],
             "ambient_dim": None},
}
COMMANDS = {
    "matrix": [["deck", "--matrix"]],
    "cone": [["angle", "--samples", "1000", "--cone"]],
    "pair": [["verify-tutte", "--pair"], ["verify-main", "--pair"]],
}
FUZZ = settings(max_examples=60, deadline=None)


def _leaf_paths(value, path=()):
    if isinstance(value, dict) and value:
        return [p for k, v in value.items() for p in _leaf_paths(v, path + (k,))]
    if isinstance(value, list) and value:
        return [p for k, v in enumerate(value) for p in _leaf_paths(v, path + (k,))]
    return [path]


def _replace(value, path, new):
    if not path:
        return new
    out = dict(value) if isinstance(value, dict) else list(value)
    out[path[0]] = _replace(value[path[0]], path[1:], new)
    return out


@st.composite
def mutated(draw, kind):
    path = draw(st.sampled_from(_leaf_paths(VALID[kind])))
    return _replace(VALID[kind], path, draw(JSON_VALUES))


def assert_typed_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code == 2
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert isinstance(json.loads(lines[0]), dict)


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@pytest.mark.parametrize("kind", sorted(VALID))
@FUZZ
@given(data=st.data())
def test_json_inputs_end_in_typed_exit(kind, input_path, data):
    value = data.draw(JSON_VALUES | mutated(kind))
    input_path.write_text(json.dumps(value))
    for command in COMMANDS[kind]:
        assert_typed_exit(command + [str(input_path), "--deterministic"])


def _number_paths(kind):
    """Paths of the matrix and cone entries of a valid input: every leaf but a count or index."""
    return [p for p in _leaf_paths(VALID[kind])
            if not {"n", "sigma", "ambient_dim"} & set(p)]


@pytest.mark.parametrize("kind", sorted(VALID))
@FUZZ
@given(data=st.data())
def test_non_number_entry_is_parse_error(kind, input_path, data):
    # a JSON number is the only valid entry: true, "1" and null once read as 1.0, 1.0, NaN
    path = data.draw(st.sampled_from(_number_paths(kind)))
    value = data.draw(st.sampled_from([True, False, "1", "0.5", None]) | st.text(max_size=4))
    input_path.write_text(json.dumps(_replace(VALID[kind], path, value)))
    for command in COMMANDS[kind]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(command + [str(input_path), "--deterministic"])
        assert code == 2 and out.getvalue() == ""
        assert json.loads(err.getvalue())["error"] == "ParseError"


@pytest.mark.parametrize("command", ["ingest", "gen-pair"])
@FUZZ
@given(raw=st.binary(max_size=24)
       | st.text(alphabet=st.characters(min_codepoint=0x3F, max_codepoint=0x7E), max_size=12))
def test_graph6_bytes_end_in_typed_exit(command, input_path, raw):
    input_path.write_bytes(raw if isinstance(raw, bytes) else raw.encode("ascii"))
    assert_typed_exit([command, "--graph6", str(input_path), "--deterministic"])


_TAU_FORMS = st.from_regex(r"(rot:|swap:)?-?[0-9]{1,2}(,-?[0-9]{1,2}){0,5}", fullmatch=True)


@pytest.fixture(scope="module")
def c5_graph6(tmp_path_factory):
    path = tmp_path_factory.mktemp("tau") / "c5.g6"
    path.write_text(graph6_encode(cycle_adjacency(5).entries) + "\n")
    return path


@FUZZ
@given(tau=st.text(max_size=12) | _TAU_FORMS)
def test_tau_text_ends_in_typed_exit(c5_graph6, tau):
    assert_typed_exit(["gen-pair", "--graph6", str(c5_graph6), f"--tau={tau}", "--deterministic"])
