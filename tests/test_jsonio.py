"""The graph-in / JSON-out boundary against its references.

`jsonio.dumps` must give the bytes of `json.dumps(sort_keys=True, indent=2)`
and raise TypeError where it does; the constructor and `graph_from_json`
must set the same fields, and accept or reject the same inputs with the same
message, as the pre-change copies in `util.py`.
"""

from __future__ import annotations

import enum
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammapath.errors import GammapathError
from gammapath.graphs import DIRECTED, UNDIRECTED, Edge, LabelledGraph
from gammapath.groups import GroupMismatchError
from gammapath.jsonio import dumps, graph_from_json

from util import (
    INTS,
    OracleLabelledGraph,
    Z,
    graph_tables,
    make_s3,
    oracle_graph_from_json,
)


def _outcome(fn, *args):
    """fn's result, or the type and text of the exception it raised."""
    try:
        return fn(*args)
    except (GammapathError, ValueError, TypeError) as exc:
        return type(exc), str(exc)


# --- the renderer ----------------------------------------------------------------


def _reference(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


class _Int(int):
    def __repr__(self):
        return "Int!"


class _Float(float):
    def __repr__(self):
        return "Float!"


class _Str(str):
    pass


class _List(list):
    pass


class _Dict(dict):
    pass


class _Colour(enum.IntEnum):
    RED = 1
    BLUE = 2


_FLOATS = st.floats() | st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 1e308, 5e-324])
_INTS = st.integers() | st.sampled_from([2**64, -(2**70), 10**30 + 1, -1])
_TEXT = st.text(st.characters(blacklist_categories=())) | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é 😀", "\ud800", ""])
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    _INTS,
    _FLOATS,
    _TEXT,
    _INTS.map(_Int),
    _FLOATS.map(_Float),
    _TEXT.map(_Str),
    st.sampled_from(list(_Colour)),
)
_KEYS = st.one_of(_TEXT, _INTS, _FLOATS, st.booleans(), st.none())


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(children, max_size=5).map(_List),
        # homogeneous scalar lists take the one-join path
        st.lists(_INTS, max_size=5),
        st.lists(_TEXT, max_size=5),
        st.lists(_FLOATS, max_size=5),
        st.dictionaries(_TEXT, children, max_size=5),
        st.dictionaries(_TEXT, children, max_size=5).map(_Dict),
        st.dictionaries(_INTS | st.booleans(), children, max_size=4),
        st.dictionaries(_FLOATS | _INTS, children, max_size=4),
        # keys of mixed types: sorting them raises TypeError unless they compare
        st.dictionaries(_KEYS, children, max_size=3),
    )


_TREES = st.recursive(_SCALARS, _containers, max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(_TREES)
def test_dumps_is_json_dumps_with_sorted_keys_and_indent_2(tree):
    assert _outcome(dumps, tree) == _outcome(_reference, tree)


@pytest.mark.parametrize(
    "payload",
    [
        object(),
        {"a": [1, {2, 3}]},
        [1, b"bytes"],
        {"x": 1j},
        {(1, 2): 0},
        {"a": 1, 2: 3},
        {None: 1, "b": 2},
        [{"k": 1}, {1.5: 0, "z": 1}],
    ],
    ids=["object", "set", "bytes", "complex", "tuple-key", "str-and-int-keys", "none-and-str-keys", "nested"],
)
def test_dumps_raises_type_error_where_json_dumps_does(payload):
    with pytest.raises(TypeError) as ours:
        dumps(payload)
    with pytest.raises(TypeError) as theirs:
        _reference(payload)
    assert str(ours.value) == str(theirs.value)


# --- the constructor ---------------------------------------------------------------

_VERTEX_IDS = st.integers(-3, 12) | st.sampled_from(["a", "b", "c", "10", "-1", "", "z"])
# ids the constructor rejects: bools, floats, None, an unhashable list
_BAD_IDS = st.sampled_from([True, False, 1.5, None, [1]])
# one draw in ten; hypothesis would pick the simplest value, 0, far more often
_RARELY = st.integers(0, 9).map(lambda x: x == 9)
_GROUPS = st.sampled_from([("Z2", Z(2)), ("Z3", Z(3)), ("Z2xZ2", Z(2, 2)), ("Z", INTS), ("S3", make_s3())])


@st.composite
def _graph_args(draw, valid: bool):
    """Constructor arguments with mixed int/str ids, parallel edges and both models;
    when not valid, some ids, endpoints, tails or terminals may be wrong."""
    _, group = draw(_GROUPS)
    model = DIRECTED if not group.is_abelian else draw(st.sampled_from([DIRECTED, UNDIRECTED]))
    vertices = draw(st.lists(_VERTEX_IDS, min_size=2, max_size=8, unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)), max_size=14))
    pairs = [(u, v) for u, v in pairs if u != v] or [(vertices[0], vertices[1])]
    # parallel edges: repeat some pairs
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))
    ids = draw(st.lists(_VERTEX_IDS | st.integers(13, 40), min_size=len(pairs), max_size=len(pairs), unique=True))
    labels = group.elements() if group.is_finite else [group.element(x) for x in range(-3, 4)]
    edges = []
    for eid, (u, v) in zip(ids, pairs):
        label = draw(st.sampled_from(labels))
        # raw label values and plain tuples are converted by the constructor
        if draw(st.booleans()):
            label = label.to_json()
        tail = draw(st.sampled_from([u, v])) if model == DIRECTED else None
        if not valid and draw(_RARELY):
            which = draw(st.sampled_from(["id", "duplicate", "u", "loop", "tail", "label"]))
            if which == "id":
                eid = draw(_BAD_IDS)
            elif which == "duplicate":
                eid = ids[0]
            elif which == "u":
                u = "missing"
            elif which == "loop":
                v = u
            elif which == "tail":
                tail = None if model == DIRECTED else u
            else:
                label = draw(st.sampled_from([1.5, "x", [[0]], Z(5).element(1)]))
        edge = (eid, u, v, label, tail)
        edges.append(Edge(*edge) if draw(st.booleans()) else edge)
    terminals = draw(st.lists(st.sampled_from(vertices), max_size=3))
    if not valid and draw(_RARELY):
        terminals.append("not-a-vertex")
    if not valid and draw(_RARELY):
        vertices = vertices + [draw(_BAD_IDS)]
    return group, model, vertices, edges, terminals


def _tables(cls, args):
    return _outcome(lambda: graph_tables(cls(*args)))


@settings(max_examples=300, deadline=None)
@given(_graph_args(valid=True))
def test_constructor_sets_the_fields_of_the_pre_change_constructor(args):
    ours = _tables(LabelledGraph, args)
    assert not isinstance(ours[0], type), ours
    assert ours == _tables(OracleLabelledGraph, args)


@settings(max_examples=300, deadline=None)
@given(_graph_args(valid=False))
def test_constructor_rejects_what_the_pre_change_constructor_rejects(args):
    assert _tables(LabelledGraph, args) == _tables(OracleLabelledGraph, args)


@settings(max_examples=100, deadline=None)
@given(_graph_args(valid=True), st.data())
def test_with_labels_matches_a_rebuilt_graph(args, data):
    graph = LabelledGraph(*args)
    group = graph.group
    labels = group.elements() if group.is_finite else [group.element(x) for x in range(-3, 4)]
    new = {e.eid: data.draw(st.sampled_from(labels)) for e in graph.edges}
    relabelled = graph.with_labels(lambda e: new[e.eid])
    rebuilt = OracleLabelledGraph(
        group, graph.model, graph.vertices, [Edge(e.eid, e.u, e.v, new[e.eid], e.tail) for e in graph.edges],
        graph.terminals,
    )
    assert graph_tables(relabelled) == graph_tables(rebuilt)
    # the parent graph is untouched
    assert graph_tables(graph) == graph_tables(OracleLabelledGraph(*args))


def test_with_labels_checks_each_label_on_the_group():
    graph = LabelledGraph.build(Z(4), UNDIRECTED, [("a", "b", 1), ("b", "c", 2)], ["a", "c"])
    assert [e.label.value for e in graph.with_labels(lambda e: [3]).edges] == [3, 3]
    with pytest.raises(GroupMismatchError):
        graph.with_labels(lambda e: Z(5).element(1))
    with pytest.raises(ValueError):
        graph.with_labels(lambda e: [1, 1])


# --- graph_from_json and its label memo -------------------------------------------

# labels that look alike: 1, 1.0, True and "1" hash alike or read alike
_LOOKALIKES = [1, 1.0, True, "1", [1], [1.0], [True], ["1"], [1, 1], [1, 1.0], [[1]], 0, [0], -1, 2, 1.5, "x", None, []]


@settings(max_examples=300, deadline=None)
@given(
    group=st.sampled_from([{"type": "cyclic_product", "orders": [2]}, {"type": "cyclic_product", "orders": [2, 2]},
                           {"type": "integers"}, {"type": "cayley", "table": [[0, 1], [1, 0]]}]),
    labels=st.lists(st.sampled_from(_LOOKALIKES), min_size=1, max_size=6),
)
def test_graph_from_json_parses_each_label_as_on_its_own(group, labels):
    vertices = list(range(len(labels) + 1))
    data = {
        "group": group,
        "model": UNDIRECTED,
        "vertices": vertices,
        "edges": [{"id": i, "u": i, "v": i + 1, "label": label} for i, label in enumerate(labels)],
        "A": [0, len(labels)],
    }
    ours = _outcome(lambda: graph_tables(graph_from_json(data)))
    assert ours == _outcome(lambda: graph_tables(oracle_graph_from_json(data)))


def test_edge_json_without_a_key_names_the_first_missing_key():
    data = LabelledGraph.build(Z(2), UNDIRECTED, [("a", "b", 0)], ["a", "b"]).to_json()
    for missing in ("id", "u", "v", "label"):
        entry = dict(data["edges"][0])
        del entry[missing]
        broken = {**data, "edges": [entry]}
        assert _outcome(graph_from_json, broken) == _outcome(oracle_graph_from_json, broken)
    # an entry that is not an object fails on its first key, whatever it is
    for entry in (["a", "b"], "edge", 3, None):
        broken = {**data, "edges": [entry]}
        assert _outcome(graph_from_json, broken) == _outcome(oracle_graph_from_json, broken)


# --- element hashing --------------------------------------------------------------


def test_an_element_hashes_by_its_value_and_still_knows_its_group():
    a, b = Z(2).element(1), Z(3).element(1)
    assert hash(a) == hash(b) == hash(1)
    assert a != b and len({a, b}) == 2
    assert a == Z(2).element([1]) and len({a, Z(2).element([1])}) == 1
