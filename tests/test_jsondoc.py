"""``repro.jsondoc.dumps`` writes exactly what the stdlib writes.

Every saved document (plans, cost tables, frontiers, analysis reports) goes
through :func:`repro.jsondoc.dumps`, so its output must equal
``json.dumps(obj, indent=2, sort_keys=True)`` byte for byte on any tree JSON
can hold, and fail with the stdlib's exception type on any tree it cannot.
"""

from __future__ import annotations

import json
import json.encoder
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Session, jsondoc


def stdlib(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


SPECIAL_FLOATS = [
    math.nan,
    math.inf,
    -math.inf,
    -0.0,
    0.0,
    1e308,
    -1.7976931348623157e308,
    5e-324,
    2.2250738585072014e-308,
    0.1,
]
# Strings shaped like the separators and brackets the writer splices in.
TRICKY_TEXT = ['"},\n  {"', ",\n  ", '": ', "[\n", "\n]", "\\", '"', "\x00\x1f\x7f", "é∑😀 "]

floats = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
ints = st.one_of(st.integers(), st.integers(min_value=2**63), st.integers(max_value=-(2**100)))
texts = st.one_of(st.text(), st.sampled_from(TRICKY_TEXT))
empties = st.one_of(st.builds(list), st.builds(dict), st.builds(tuple))
leaves = st.one_of(st.none(), st.booleans(), ints, floats, texts, empties)


def containers(children):
    # Keys of one dict share a type, as the stdlib cannot sort mixed keys.
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(texts, children, max_size=5),
        st.dictionaries(ints, children, max_size=5),
        st.dictionaries(floats, children, max_size=5),
        st.dictionaries(st.booleans(), children, max_size=2),
        st.dictionaries(st.none(), children, max_size=1),
    )


trees = st.recursive(leaves, containers, max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(trees)
def test_dumps_equals_the_stdlib(tree):
    assert jsondoc.dumps(tree) == stdlib(tree)


def test_dumps_equals_the_stdlib_without_the_c_encoder(monkeypatch):
    tree = {"a": [1, {"b": []}], "c": {"d": (2.5, None)}}
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    assert jsondoc.dumps(tree) == stdlib(tree)


def _cycles():
    in_list = [1]
    in_list.append(in_list)
    in_dict = {"a": 1}
    in_dict["self"] = in_dict
    deep = {"outer": [{"inner": []}]}
    deep["outer"][0]["inner"].append(deep)
    return [in_list, in_dict, deep]


@pytest.mark.parametrize(
    "bad",
    _cycles()
    + [
        object(),
        {1, 2},
        [1, object()],
        {"a": [1, {"b": {3}}]},
        {1: "a", "b": 2},
        {1: [1], "b": [2]},
        {(1, 2): "tuple key"},
        {"a": {(1, 2): [1]}},
    ],
    ids=lambda value: type(value).__name__,
)
def test_dumps_raises_what_the_stdlib_raises(bad):
    with pytest.raises(Exception) as expected:
        stdlib(bad)
    with pytest.raises(expected.type):
        jsondoc.dumps(bad)


# The frontier workload's keys in perfbench/workloads.py.
FRONTIER_KEYS = [
    (model, platform)
    for model in ("alexnet", "vgg-d", "mobilenet_v1", "resnet18", "mobilenet_v2")
    for platform in ("intel-haswell", "arm-cortex-a57")
]


@pytest.fixture(scope="module")
def session():
    return Session()


@pytest.mark.parametrize("model,platform", FRONTIER_KEYS)
def test_frontier_document_equals_the_stdlib_dump(session, model, platform):
    frontier = session.plan_frontier(model, platform)
    assert frontier.to_json() == stdlib(frontier.to_dict())
