"""The summary writer ``_front._json_pieces`` against ``json.dumps`` as oracle."""
import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emitternet import _front
from emitternet.cli import main


def _json_text(doc):
    return "".join(_front._json_pieces(doc))


def _stdlib(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _outcome(encode, doc):
    """The text, or the type and message of the error."""
    try:
        return encode(doc)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _assert_same(doc):
    assert _outcome(_json_text, doc) == _outcome(_stdlib, doc)


special_floats = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 5e-324])
floats = st.floats() | special_floats | st.floats().map(np.float64)
big = st.integers(min_value=2**64, max_value=2**200)
ints = st.integers() | big | big.map(lambda i: -i)
numbers = st.none() | st.booleans() | ints | floats
# non-ASCII, control characters and the JSON escapes
texts = st.text() | st.text(alphabet='\x00\x1f"\\/\n\t\x7fé \U0001f600,[]{}')
scalars = numbers | texts

# each dict's keys share one type, so that they sort
keys = st.sampled_from([texts, st.integers(), st.floats(), st.booleans(), st.none()])
rows = st.lists(numbers, min_size=1, max_size=4)
matrices = st.one_of(
    st.lists(rows, min_size=1, max_size=6),  # the fast path's shape
    st.lists(rows.map(tuple), min_size=1, max_size=3).map(tuple),
    st.lists(st.lists(numbers, max_size=3), max_size=4),  # ragged and empty rows
    st.lists(st.lists(scalars, min_size=1, max_size=3), min_size=1, max_size=4),
    st.lists(st.lists(rows, max_size=2), min_size=1, max_size=3),  # nested rows
    st.lists(st.lists(numbers, min_size=1) | numbers, min_size=1, max_size=4),
)


def _containers(children):
    dicts = keys.flatmap(lambda k: st.dictionaries(k, children, max_size=4))
    return st.lists(children, max_size=4) | st.lists(children, max_size=3).map(tuple) | dicts


trees = st.recursive(scalars | matrices, _containers, max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(trees)
# row lists under int keys: the stdlib writes the whole dict, rows included
@example({1: [[1.0, 2.0], [3.0, 4.0]]})
@example({"results": {0: [[1.0, -0.0]], 1: [[True, None]]}, "rows": [[1.0]]})
def test_equals_the_stdlib_text(doc):
    _assert_same(doc)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(texts, matrices, max_size=3))
def test_matrices_under_keys_equal_the_stdlib_text(doc):
    _assert_same({"results": doc, "branches": [doc, {"weight": 0.5}]})


def _cycles():
    flat = []
    flat.append(flat)
    through_dict = {"a": []}
    through_dict["a"].append(through_dict)
    through_row = [[1.0, 2.0]]
    through_row[0].append(through_row)
    outer = {"rows": [[1.0]]}
    outer["rows"][0].append(outer)
    through_int_keys = {"a": {1: []}}
    through_int_keys["a"][1].append(through_int_keys)
    return [flat, through_dict, through_row, outer, through_int_keys]


@pytest.mark.parametrize(
    "doc",
    [
        np.int64(1),
        {"a": np.int64(1)},
        [[1.0, np.int64(2)]],
        [[1.0], [np.bool_(True)]],
        {"a": {1, 2}},
        [[1.0], [2.0, {3}]],
        {1: 0, "a": 0},
        {None: 0, 1: 0},
        {(1, 2): 0},
        {"a": {b"k": 0}},
        {"rows": [[1.0]], "z": {"a": 1, "n": np.int64(2)}},
        *_cycles(),
    ],
    ids=[
        "int64", "int64-value", "int64-in-row", "bool_-in-row", "set", "set-in-row",
        "mixed-keys", "none-and-int-keys", "tuple-key", "bytes-key", "int64-in-walked-dict",
        "cycle-list", "cycle-dict", "cycle-row", "cycle-row-to-dict", "cycle-through-int-keys",
    ],
)
def test_refuses_what_the_stdlib_refuses(doc):
    outcome = _outcome(_json_text, doc)
    assert isinstance(outcome, tuple)
    assert outcome == _outcome(_stdlib, doc)


@pytest.fixture(scope="module")
def protocol_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("protocol")
    assert main(["protocol", "--n", "12", "--eta", "0.85", "--sweep", "--out", str(out)]) == 0
    assert main(["birthday", "--q", "0.0098", "--out", str(out)]) == 0
    assert main(["report", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", ["protocol_summary.json", "report.json"])
def test_written_files_equal_the_stdlib_text(protocol_run, name):
    text = (protocol_run / name).read_text(encoding="utf-8")
    assert text == _stdlib(json.loads(text))


def test_amplitude_rows_take_the_fast_path(protocol_run, monkeypatch):
    doc = json.loads((protocol_run / "protocol_summary.json").read_text(encoding="utf-8"))
    # 13 states of 4096 [re, im] pairs: about 160k values on the generic path
    assert sum(len(b["amplitudes"]) for b in doc["results"]["branches"]) == 12 * 4096
    calls = 0
    generic = _front._json_value

    def counted(*args):
        nonlocal calls
        calls += 1
        return generic(*args)

    monkeypatch.setattr(_front, "_json_value", counted)
    assert _json_text(doc) == _stdlib(doc)
    assert calls <= 300


@settings(max_examples=300, deadline=None)
@given(texts, st.sampled_from([1, 2, 3]))
@example("\ud800 lone surrogate", 2)
def test_error_line_equals_the_stdlib_text(message, code):
    # written without json, so that a usage error does not load it
    with contextlib.redirect_stderr(io.StringIO()) as err:
        _front._print_error(ValueError(message), code)
    payload = {"error": message, "type": "ValueError", "exit_code": code}
    assert err.getvalue() == json.dumps(payload) + "\n"
