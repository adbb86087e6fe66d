"""Inseparable pairs and 3-connectivity against brute force and networkx.

The masks come from the blocks of G and of every G - v; they are checked
pair by pair against trying every cut and against networkx's local node
connectivity (three internally disjoint paths, Menger).
"""

from __future__ import annotations

import itertools
import random

import networkx as nx
import pytest
from networkx.algorithms.connectivity import (
    build_auxiliary_node_connectivity,
    local_node_connectivity,
)
from networkx.algorithms.flow import build_residual_network

from gammapath.graphs import UNDIRECTED, LabelledGraph, _block_mates, _inseparable_masks, three_blocks
from gammapath.harness import random_three_connected

from util import Z, oracle_is_three_connected, oracle_pair_inseparable


def _simple(graph: LabelledGraph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(graph.vertices)
    out.add_edges_from((e.u, e.v) for e in graph.edges)
    return out


def _check(graph: LabelledGraph) -> None:
    """Every pair and the whole graph agree with the brute-force oracles and networkx."""
    masks = _inseparable_masks(graph)
    simple = _simple(graph)
    auxiliary = build_auxiliary_node_connectivity(simple)
    residual = build_residual_network(auxiliary, "capacity")
    for (s, u), (t, v) in itertools.combinations(enumerate(graph.vertices), 2):
        got = bool(masks[s] >> t & 1)
        assert bool(masks[t] >> s & 1) == got == oracle_pair_inseparable(graph, u, v), (u, v)
        if not simple.has_edge(u, v):
            paths = local_node_connectivity(
                simple, u, v, auxiliary=auxiliary, residual=residual, cutoff=3
            )
            assert got == (paths >= 3), (u, v)
    three = graph.is_three_connected()
    assert three == oracle_is_three_connected(graph)
    assert three == (len(graph.vertices) >= 4 and nx.node_connectivity(simple) >= 3)


def _random_multigraph(rng: random.Random, n: int) -> LabelledGraph:
    density = rng.choice([0.15, 0.3, 0.5, 0.7, 0.9])
    # about a third of the graphs mix int and str ids, "3" next to 3
    mixed = rng.random() < 0.35
    ids = [str(x) if mixed and rng.random() < 0.5 else x for x in range(n)]
    edges = [(u, v, 0) for u, v in itertools.combinations(ids, 2) if rng.random() < density]
    if edges:
        edges += [rng.choice(edges) for _ in range(rng.randint(0, 3))]
    return LabelledGraph.build(Z(2), UNDIRECTED, edges, (), extra_vertices=ids)


def test_menger_matches_oracles_on_random_multigraphs():
    rng = random.Random(11)
    seen = set()
    for _ in range(240):
        g = _random_multigraph(rng, rng.randint(2, 12))
        _check(g)
        pairs = [frozenset((e.u, e.v)) for e in g.edges]
        seen.add(("parallel", len(set(pairs)) < len(pairs)))
        seen.add(("connected", nx.is_connected(_simple(g))))
        seen.add(("small", len(g.vertices) < 4))
        seen.add(("adjacent", bool(pairs)))
        seen.add(("three-connected", g.is_three_connected()))
        seen.add(("mixed ids", len(set(map(type, g.vertices))) > 1))
    # the draw covers each case both ways
    assert seen == {(kind, flag) for kind, _ in seen for flag in (False, True)}


def _glued(rng: random.Random, a: int, b: int) -> tuple[LabelledGraph, set, set]:
    """Two 3-connected graphs sharing the vertices 0 and 1."""
    g1, _ = random_three_connected(rng, Z(2), a)
    g2, _ = random_three_connected(rng, Z(2), b)

    def rename(x):
        return x if x < 2 else x + a - 2

    edges = [(e.u, e.v, 0) for e in g1.edges] + [(rename(e.u), rename(e.v), 0) for e in g2.edges]
    graph = LabelledGraph.build(Z(2), UNDIRECTED, edges, ())
    return graph, set(range(a)), {rename(x) for x in range(b)}


@pytest.mark.parametrize("seed", range(6))
def test_menger_on_graphs_with_exactly_one_two_cut(seed):
    rng = random.Random(seed)
    g, side1, side2 = _glued(rng, rng.randint(4, 7), rng.randint(4, 7))
    cuts = [
        set(cut)
        for r in (0, 1, 2)
        for cut in itertools.combinations(g.vertices, r)
        if not nx.is_connected(_simple(g.without_vertices(cut)))
    ]
    assert cuts == [{0, 1}]
    _check(g)
    assert not g.is_three_connected()
    assert {frozenset(b.vertices) for b in three_blocks(g)} == {frozenset(side1), frozenset(side2)}


def _named(edges) -> LabelledGraph:
    return LabelledGraph.build(Z(2), UNDIRECTED, [(u, v, 0) for u, v in edges], ())


NAMED = {
    "K4": (_named(itertools.combinations("abcd", 2)), True),
    "K33": (_named((u, v) for u in "abc" for v in "xyz"), True),
    "prism": (_named([("a", "b"), ("b", "c"), ("c", "a"), ("x", "y"), ("y", "z"), ("z", "x"),
                      ("a", "x"), ("b", "y"), ("c", "z")]), True),
    # hub h and a 5-cycle rim
    "W5": (_named([("h", r) for r in "abcde"] + [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"),
                                                 ("e", "a")]), True),
    "K4-e": (_named([p for p in itertools.combinations("abcd", 2) if p != ("c", "d")]), False),
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_menger_named_graphs(name):
    graph, three_connected = NAMED[name]
    _check(graph)
    assert graph.is_three_connected() is three_connected
    blocks = [b.vertices for b in three_blocks(graph)]
    assert blocks == ([graph.vertices] if three_connected else [("a", "b", "c"), ("a", "b", "d")])


def test_three_connectivity_of_large_grown_graphs():
    # random_three_connected grows K4 by degree-3 attachments, which keeps it 3-connected
    for n in (14, 18, 40, 60, 100):
        g, _ = random_three_connected(random.Random(n), Z(3), n)
        assert g.is_three_connected()
        assert nx.node_connectivity(_simple(g)) == 3
        # the last vertex has degree 3; dropping one of its edges leaves a 2-cut
        last = next(e for e in g.edges if n - 1 in (e.u, e.v))
        cut = LabelledGraph(g.group, UNDIRECTED, g.vertices, [e for e in g.edges if e != last])
        assert not cut.is_three_connected()
        assert not oracle_is_three_connected(cut)
        assert nx.node_connectivity(_simple(cut)) == 2


def test_block_mates_on_a_long_cycle():
    # an explicit stack: a recursive search would exceed Python's recursion limit
    n = 5000
    cycle = [[(x - 1) % n, (x + 1) % n] for x in range(n)]
    assert _block_mates(cycle) == [(1 << n) - 1] * n
    # without vertex 0 it is a path, whose blocks are its edges
    path = [-1] + [(7 << (x - 1)) & ~1 for x in range(1, n - 1)] + [3 << (n - 2)]
    assert _block_mates(cycle, 0) == path
