"""The JSON writer: ``cli._json_text`` against ``json.dumps`` as the reference.

Every JSON output of the CLI (the verdict report, ``spectrum --format json``
and ``--dump-config``) goes through ``_json_text``, which must give the text
of ``json.dumps(doc, sort_keys=True, indent=2)`` byte for byte and raise
``TypeError`` where it does.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdm_dirac import cli
from pdm_dirac.cli import _json_text, main


def reference(doc):
    return json.dumps(doc, sort_keys=True, indent=2)


# quotes, backslashes, control characters, non-ASCII and lone surrogates, besides
# whatever the character strategy draws (surrogates included)
special = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", " ", "é",
                           "\ud800", "\udfff", "\U0001f600"])
strings = st.text(special | st.characters(exclude_categories=()), max_size=12)
edge_floats = st.sampled_from([-0.0, 0.0, 5e-324, 1.7976931348623157e308, math.nan,
                               math.inf, -math.inf, 0.1, 1e-06, 1e16])
scalars = (st.none() | st.booleans() | strings
           | st.integers() | st.integers(2**64, 2**200) | st.integers(-(2**200), -(2**64))
           | st.floats() | edge_floats)
documents = st.recursive(
    scalars,
    lambda children: (st.lists(children, max_size=5) | st.lists(children, max_size=5).map(tuple)
                      | st.dictionaries(strings, children, max_size=5)),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(documents)
def test_json_text_is_json_dumps(doc):
    assert _json_text(doc) == reference(doc)


def _nested(depth):
    doc = [[], {}, ()]
    for level in range(depth):
        doc = {"level": level, "inner": [doc, {"x": -0.0}], "empty": [{}, [], ()]}
    return doc


@pytest.mark.parametrize("doc", [{}, [], (), "", 0, -0.0, None, True, False,
                                 2**64 + 1, -(2**70), _nested(60)],
                         ids=lambda doc: repr(doc)[:20])
def test_json_text_edge_documents(doc):
    assert _json_text(doc) == reference(doc)


def _raised(write, doc):
    with pytest.raises(TypeError) as caught:
        write(doc)
    return str(caught.value)


@pytest.mark.parametrize("doc", [
    {1, 2},
    np.int64(3),
    {"a": [1, {"b": {1, 2}}]},
    [np.int64(3)],
    {(1, 2): 2},                # a tuple key
    {"a": 1, 1: 2},             # keys that sort cannot compare
])
def test_json_text_raises_type_error_as_json_does(doc):
    assert _raised(_json_text, doc) == _raised(reference, doc)


def test_json_text_writes_float_subclass_and_non_str_keys_as_json():
    # numpy.float64 is a float subclass; json writes non-str keys as strings
    doc = {"x": np.float64(0.25), "y": [np.float64(math.nan)]}
    assert _json_text(doc) == reference(doc)
    for keys in ([1, 2**70, -3], [0.5, math.inf, -math.inf, math.nan], [True, False], [None]):
        doc = {key: key for key in keys}
        assert _json_text(doc) == reference(doc)


# One run per JSON output: each writes exactly the text json.dumps gives its document.
JSON_RUNS = [
    ["verdict", "--eta", "0.5", "--lambda", "1"],
    ["verdict", "--eta", "0.5", "--lambda", "1", "--control-well"],  # candidates
    ["verdict", "--eta", "1", "--lambda", "1e160"],  # an error trail
    ["verdict", "--eta", "0.5", "--lambda", "1", "--dump-config"],
    ["spectrum", "--eta", "0.5", "--lambda", "1", "--n-max", "3", "--format", "json"],
    ["spectrum", "--eta", "1", "--lambda", repr(0.5**0.5), "--n-max", "1", "--format", "json"],
    ["surface", "--grid", "3,3", "--dump-config"],
    ["potential", "--eta", "0.5", "--M0", "2", "--alpha", "1", "--dump-config"],
]


@pytest.mark.parametrize("argv", JSON_RUNS, ids=" ".join)
def test_cli_json_outputs_are_json_dumps_of_their_documents(argv, monkeypatch, capsys):
    docs = []

    def recorded(doc):
        docs.append(doc)
        return _json_text(doc)

    monkeypatch.setattr(cli, "_json_text", recorded)
    main([*argv, "--out", "-"])
    out = capsys.readouterr().out
    [doc] = docs
    assert out == reference(doc) + "\n"
