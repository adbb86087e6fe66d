"""The graph is the one reader of vertex and edge ids.

An id is an int or a str.  A float or bool twin (1.0, True) hashes like the
int 1, so an entry point that looked it up without reading its type would
take it for vertex or edge 1.  Every entry point that takes an id from its
caller reads it through `v in graph` or `graph.edge`, so each one refuses a
twin, and an unknown id, with a `ValueError` (`PreconditionFailed` is one).
"""

from __future__ import annotations

import pytest

from gammapath.chains import CycleChain
from gammapath.frame import base_zero_path, extract_zero_paths, validate_frame_cover
from gammapath.graphs import (
    DIRECTED,
    UNDIRECTED,
    LabelledGraph,
    PathWitness,
    apply_shifts,
    nonzero_terminal_path_from_fans,
    walk_weight,
)
from gammapath.packing import ABA, PathFamilySpec

from util import Z

Z3 = Z(3)
# the path 0 -1- 1 -1- 2 (edge ids 0 and 1) with A = {0, 2}, in both models
PATH = {model: LabelledGraph.build(Z3, model, [(0, 1, 1), (1, 2, 1)], [0, 2]) for model in (DIRECTED, UNDIRECTED)}
# a zero star from 1 to the terminals 0, 2, 3, 4 (edge ids 0 to 3): four leaf paths, one more than |Z/3|
STAR = LabelledGraph.build(Z3, DIRECTED, [(1, a, 0) for a in (0, 2, 3, 4)], [0, 2, 3, 4])
# a triangle 1-2-3 of weight 1 (edges 0, 1, 2) with a terminal fan 4-1, 5-2, 6-3 (edges 3, 4, 5)
FANS = LabelledGraph.build(
    Z3, UNDIRECTED, [(1, 2, 1), (2, 3, 0), (3, 1, 0), (4, 1, 0), (5, 2, 0), (6, 3, 0)], [4, 5, 6]
)
ZERO = Z3.zero()


def _fans(x):
    return [PathWitness((4, x), (3,), ZERO), PathWitness((5, 2), (4,), ZERO), PathWitness((6, 3), (5,), ZERO)]


# (graph, call with one id replaced by x, the id x stands for) by entry point; each call succeeds
# with that id
ENTRY_POINTS = {
    "in graph": (PATH[DIRECTED], lambda g, x: x in g or None, 1),
    "graph.edge": (PATH[DIRECTED], lambda g, x: g.edge(x), 1),
    "walk_weight vertex": (PATH[DIRECTED], lambda g, x: walk_weight(g, (0, x, 2), (0, 1)), 1),
    "walk_weight edge": (PATH[DIRECTED], lambda g, x: walk_weight(g, (0, 1, 2), (0, x)), 1),
    "PathWitness.of vertex": (PATH[DIRECTED], lambda g, x: PathWitness.of(g, (0, x, 2), (0, 1)), 1),
    "PathWitness.of edge": (PATH[DIRECTED], lambda g, x: PathWitness.of(g, (0, 1, 2), (0, x)), 1),
    "apply_shifts": (PATH[UNDIRECTED], lambda g, x: apply_shifts(g, [(x, 0)]), 1),
    "PathFamilySpec through": (PATH[UNDIRECTED], lambda g, x: PathFamilySpec(ABA, g, through=frozenset({x})), 1),
    "base_zero_path edge": (STAR, lambda g, x: base_zero_path(g, {0, x, 2, 3}, 1), 1),
    "base_zero_path root": (STAR, lambda g, x: base_zero_path(g, {0, 1, 2, 3}, x), 1),
    "extract_zero_paths": (STAR, lambda g, x: extract_zero_paths(g, {0, x, 2, 3}, 1), 1),
    "validate_frame_cover": (PATH[DIRECTED], lambda g, x: validate_frame_cover(g, 1, frozenset({x})), 1),
    "CycleChain.embedded vertex": (
        PATH[UNDIRECTED], lambda g, x: CycleChain.embedded(g, PathWitness((0, x, 2), (0, 1), Z3.element(2)), []), 1,
    ),
    "CycleChain.embedded edge": (
        PATH[UNDIRECTED], lambda g, x: CycleChain.embedded(g, PathWitness((0, 1, 2), (0, x), Z3.element(2)), []), 1,
    ),
    "fans cycle vertex": (
        FANS, lambda g, x: nonzero_terminal_path_from_fans(g, (2, x, 3, 2), (0, 2, 1), _fans(1)), 1,
    ),
    "fans cycle edge": (
        FANS, lambda g, x: nonzero_terminal_path_from_fans(g, (1, 2, 3, 1), (x, 1, 2), _fans(1)), 0,
    ),
    "fans fan vertex": (FANS, lambda g, x: nonzero_terminal_path_from_fans(g, (1, 2, 3, 1), (0, 1, 2), _fans(x)), 1),
}
# what stands in for the id: its float twin, its bool twin (only 0 and 1 have one), an unknown id
BAD = {"float twin": float, "bool twin": bool, "unknown": lambda x: 99}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_an_entry_point_takes_the_id_itself(name):
    graph, call, good = ENTRY_POINTS[name]
    call(graph, good)


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_an_entry_point_refuses_a_twin_or_unknown_id(name, bad):
    graph, call, good = ENTRY_POINTS[name]
    x = BAD[bad](good)
    assert x == 99 or (x == good and type(x) is not int)
    if name == "in graph" and bad == "unknown":
        assert x not in graph  # membership of an id of the right type is a plain answer
        return
    with pytest.raises(ValueError):
        call(graph, x)


def test_a_twin_is_refused_with_the_constructors_message():
    # read by hash alone, `g.edge(True)` would be edge 1 and `1.0 in g` True
    g = PATH[DIRECTED]
    for twin in (True, 1.0):
        with pytest.raises(ValueError, match=f"^vertex ids must be ints or strings, got {twin}$"):
            twin in g
        with pytest.raises(ValueError, match=f"^edge ids must be ints or strings, got {twin}$"):
            g.edge(twin)
    with pytest.raises(ValueError, match="^vertex ids must be ints or strings, got None$"):
        None in g
    with pytest.raises(ValueError, match=r"^edge ids must be ints or strings, got \[0\]$"):
        g.edge([0])
    with pytest.raises(ValueError, match="^unknown edge 99$"):
        g.edge(99)
    assert 1 in g and "1" not in g and g.edge(1).eid == 1


def test_a_frame_cover_is_read_through_the_graph():
    # read by hash alone, {1.0, 99} would give size 2, counting a vertex the graph lacks
    g = PATH[DIRECTED]
    with pytest.raises(ValueError):
        validate_frame_cover(g, 1, frozenset({1.0, 99}))
    with pytest.raises(ValueError, match="^vertex ids must be ints or strings, got 1.0$"):
        validate_frame_cover(g, 1, frozenset({1.0}))
    with pytest.raises(ValueError, match="^cover must consist of vertices$"):
        validate_frame_cover(g, 1, frozenset({0, 99}))
    checks = validate_frame_cover(g, 1, frozenset({1}))
    assert checks == {"bound": 0, "size": 1, "bound_ok": False, "verified_empty": True}


@pytest.mark.parametrize(
    "tree, detail",
    [(["z", "y", "x", 0], "unknown edge 'x'"), (["y", 2.0, "x"], "edge ids must be ints or strings, got 2.0")],
    ids=["unknown", "float"],
)
def test_a_collection_of_edge_ids_is_read_in_key_order(tree, detail):
    # the id an error names does not follow the collection's order, which for a set of strings
    # changes with PYTHONHASHSEED; a list in another order stands in for such a set
    with pytest.raises(ValueError) as raised:
        extract_zero_paths(STAR, tree, 1)
    assert str(raised.value) == detail
    assert [e.eid for e in STAR.edges_of([3, 1, 2])] == [1, 2, 3]
