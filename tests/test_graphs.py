from __future__ import annotations

import functools
import inspect
import itertools
import random
import sys

import networkx as nx
import pytest

from gammapath import graphs
from gammapath.errors import (
    GroupMismatchError,
    InternalInvariantError,
    Limits,
    LimitExceeded,
    PreconditionFailed,
)
from gammapath.graphs import (
    DIRECTED,
    UNDIRECTED,
    Edge,
    LabelledGraph,
    PathWitness,
    apply_shifts,
    enumerate_terminal_paths,
    is_gamma_bipartite,
    iter_simple_cycles,
    nonzero_terminal_path_from_fans,
    normalize_to_zero,
    three_blocks,
    vertex_key,
    walk_weight,
)
from gammapath.groups import elements_of_order_at_most_2
from gammapath.packing import reduce_weight_to_zero

from util import (
    INTS,
    Z,
    component_of,
    graph_tables,
    make_s3,
    oracle_block_path_weights,
    oracle_bridges,
    oracle_fan_path,
    oracle_iter_simple_cycles,
    random_label,
    sparse_graph,
    table_search_paths,
)


def undirected(group, edges, terminals, extra=()):
    return LabelledGraph.build(group, UNDIRECTED, edges, terminals, extra)


def test_construction_rejects_bad_input():
    z2 = Z(2)
    with pytest.raises(ValueError):
        undirected(z2, [("a", "a", 0)], ())  # loop
    with pytest.raises(ValueError):
        LabelledGraph(z2, UNDIRECTED, ["a"], [], terminals=["b"])  # A not subset of V
    with pytest.raises(ValueError):
        LabelledGraph.build(Z(4), DIRECTED, [("a", "b", 1, "c")], ())  # bad tail
    from util import make_s3

    with pytest.raises(ValueError):
        LabelledGraph.build(make_s3(), UNDIRECTED, [("a", "b", 1)], ())  # nonabelian undirected


def test_ids_of_one_kind_sort_as_themselves_and_mixed_ids_by_key(monkeypatch):
    calls = []

    def counting(key):
        return lambda x: calls.append(x) or key(x)

    monkeypatch.setattr(graphs, "vertex_key", counting(graphs.vertex_key))
    monkeypatch.setattr(graphs, "_eid_key", counting(graphs._eid_key))
    # string order, as the key gives it: "b10" before "b2"
    edges = [Edge(f"b{i}", f"v{i}", f"v{i + 1}", 0) for i in (2, 10, 1)]
    g = LabelledGraph(Z(2), UNDIRECTED, ["v3", "v10", "v1", "v2", "v11"], edges)
    assert g.vertices == ("v1", "v10", "v11", "v2", "v3")
    assert [e.eid for e in g.edges] == ["b1", "b10", "b2"]
    g = LabelledGraph(Z(2), UNDIRECTED, [3, 1, 2], [Edge(5, 1, 2, 0), Edge(4, 2, 3, 0)])
    assert g.vertices == (1, 2, 3) and [e.eid for e in g.edges] == [4, 5]
    assert calls == []
    # mixed ids: ints before strings, each kind in its own order, through the keys
    g = LabelledGraph(Z(2), UNDIRECTED, ["b", 2, "a", 10], [Edge("e", "a", 2, 0), Edge(7, 10, "b", 0)])
    assert g.vertices == (2, 10, "a", "b") and [e.eid for e in g.edges] == [7, "e"]
    assert sorted(map(repr, calls)) == sorted(map(repr, ["b", 2, "a", 10, "e", 7]))
    # the keys still check what is neither
    for vertices in ([1, 2.0], [True, 2], ["a", None]):
        with pytest.raises(ValueError, match="vertex ids must be ints or strings"):
            LabelledGraph(Z(2), UNDIRECTED, vertices, [])


def test_parallel_edges_allowed():
    z3 = Z(3)
    g = undirected(z3, [("a", "b", 1), ("a", "b", 2)], ["a", "b"])
    assert len(g.edges) == 2


def test_walk_weight_directed_sign_convention():
    z5 = Z(5)
    g = LabelledGraph.build(z5, DIRECTED, [("u", "v", 2, "u")], ["u", "v"])
    assert walk_weight(g, ("u", "v"), (0,)) == z5.element(2)
    assert walk_weight(g, ("v", "u"), (0,)) == z5.element(3)


def test_walk_weight_undirected_sum_and_empty():
    z2 = Z(2)
    g = undirected(z2, [("a", "b", 1), ("b", "c", 1), ("a", "c", 0)], ["a"])
    assert walk_weight(g, ("a", "b", "c", "a"), (0, 1, 2)) == z2.zero()
    assert walk_weight(g, ("b",), ()) == z2.zero()
    with pytest.raises(ValueError):
        walk_weight(g, ("a", "c"), (0,))  # edge 0 joins a,b


@pytest.mark.parametrize(
    "vertices, edge_ids, twin",
    [((0, True, 2), (0, 1), "vertex ids must be ints or strings, got True"),
     ((0, 1.0, 2), (0, 1), "vertex ids must be ints or strings, got 1.0"),
     ((0, 1, 2), (0, True), "edge ids must be ints or strings, got True"),
     ((0, 1, 2), (0.0, 1), "edge ids must be ints or strings, got 0.0")],
    ids=["bool-vertex", "float-vertex", "bool-edge", "float-edge"],
)
def test_walk_weight_reads_ids_by_exact_type(vertices, edge_ids, twin):
    # a float or bool twin of an id hashes like it: without the type check the walk would weigh
    g = undirected(Z(3), [(0, 1, 1), (1, 2, 1)], [0, 2])
    for build in (walk_weight, PathWitness.of):
        with pytest.raises(ValueError) as info:
            build(g, vertices, edge_ids)
        assert str(info.value) == twin


def test_walk_weight_nonabelian_order():
    from util import make_s3

    s3 = make_s3()
    a, b = s3.element(1), s3.element(2)
    g = LabelledGraph.build(
        s3, DIRECTED, [("x", "y", a, "x"), ("y", "z", b, "y")], ["x", "z"]
    )
    assert walk_weight(g, ("x", "y", "z"), (0, 1)) == a + b
    # traversing backwards inverts and reverses
    assert walk_weight(g, ("z", "y", "x"), (1, 0)) == -(a + b)


def test_enumerate_simple_example():
    z2 = Z(2)
    g = undirected(z2, [("a", "x", 1), ("x", "b", 1)], ["a", "b"])
    zero_paths = enumerate_terminal_paths(g, weight=z2.zero())
    assert len(zero_paths) == 1
    assert zero_paths[0].vertices == ("a", "x", "b")
    zero = z2.zero().value
    assert not enumerate_terminal_paths(g, keep=lambda path, edges, end, w: w != zero)


def test_enumerate_k4_all_paths():
    z2 = Z(2)
    edges = [(u, v, 0) for u, v in itertools.combinations(["a", "b", "x", "y"], 2)]
    g = undirected(z2, edges, ["a", "b"])
    paths = enumerate_terminal_paths(g)
    assert len(paths) == 5
    for p in paths:
        p.validate(g)
        assert set(p.endpoints) == {"a", "b"}


def test_enumerate_matches_networkx_on_random_simple_graphs():
    rng = random.Random(7)
    block_rng = random.Random(8)
    z4 = Z(4)
    for _ in range(30):
        n = rng.randint(3, 8)
        vertices = list(range(n))
        possible = list(itertools.combinations(vertices, 2))
        m = rng.randint(n - 1, min(len(possible), 2 * n))
        chosen = rng.sample(possible, m)
        terminals = rng.sample(vertices, rng.randint(2, min(4, n)))
        g = undirected(
            z4,
            [(u, v, rng.randrange(4)) for u, v in chosen],
            terminals,
            extra=vertices,
        )
        ours = enumerate_terminal_paths(g)
        sequences = [p.vertices for p in ours]
        assert len(sequences) == len(set(sequences))  # no duplicates
        # independent oracle: networkx simple paths between terminal pairs,
        # filtered to avoid internal terminals
        h = nx.Graph()
        h.add_nodes_from(vertices)
        h.add_edges_from(chosen)
        expected = set()
        for a, b in itertools.combinations(sorted(terminals), 2):
            for p in nx.all_simple_paths(h, a, b):
                if all(v not in terminals for v in p[1:-1]):
                    expected.add(tuple(p) if p[0] < p[-1] else tuple(reversed(p)))
        assert set(sequences) == expected
        # the kernel with a blocked set yields exactly the terminal paths of G - B:
        # each finished source is forbidden to the later ones, so the last one
        # need not search and a path ending at its own source is the only reject
        blocked = set(block_rng.sample(vertices, block_rng.randint(0, n - 2)))
        sources = [a for a in sorted(terminals) if a not in blocked]
        found = []
        for vs, es, w in table_search_paths(
            g, sources[:-1], g.terminals, lambda path, edges, end, eid: end != path[0],
            forbidden=blocked, max_len=n, max_count=10_000, cut="path length",
        ):
            assert w == walk_weight(g, vs, es).value
            found.append(vs)
        assert len(found) == len(set(found))
        h.remove_nodes_from(blocked)
        kept = [a for a in terminals if a not in blocked]
        expected = set()
        for a, b in itertools.combinations(sorted(kept), 2):
            for p in nx.all_simple_paths(h, a, b):
                if all(v not in kept for v in p[1:-1]):
                    expected.add(tuple(p))
        assert set(found) == expected


def test_enumeration_limit_exceeded():
    z2 = Z(2)
    edges = [(u, v, 0) for u, v in itertools.combinations(range(7), 2)]
    g = undirected(z2, edges, [0, 1])
    # paths of one and two edges were found, longer ones were cut: still no answer
    with pytest.raises(LimitExceeded) as info:
        enumerate_terminal_paths(g, limits=Limits(max_len=2, max_paths=100))
    assert str(info.value) == "path length during exhaustive enumeration exceeds limit 2"
    # the only terminal path has three edges, so nothing is found before the cut
    line = undirected(z2, [("a", "x", 0), ("x", "y", 0), ("y", "b", 0)], ["a", "b"])
    with pytest.raises(LimitExceeded) as info:
        enumerate_terminal_paths(line, limits=Limits(max_len=2))
    assert str(info.value) == "path length during exhaustive enumeration exceeds limit 2"


def test_directed_weight_filter_matches_either_traversal():
    z5 = Z(5)
    g = LabelledGraph.build(z5, DIRECTED, [("a", "x", 2, "a"), ("x", "b", 0, "b")], ["a", "b"])
    # forward a->b weight: 2 + (-0) = 2; backward weight 3
    hits = enumerate_terminal_paths(g, weight=z5.element(3))
    assert len(hits) == 1
    assert hits[0].vertices == ("b", "x", "a")
    assert walk_weight(g, *[hits[0].vertices, hits[0].edge_ids]) == z5.element(3)


def test_shift_examples():
    z2 = Z(2)
    tri = undirected(z2, [("a", "b", 1), ("b", "c", 0), ("a", "c", 0)], ["a"])
    same = apply_shifts(tri, [("a", z2.zero())])
    assert [e.label for e in same.edges] == [e.label for e in tri.edges]
    shifted = apply_shifts(tri, [("c", z2.element(1))])
    assert [e.label for e in shifted.edges] == [z2.element(1)] * 3
    z4 = Z(4)
    g = undirected(z4, [("a", "b", 1), ("b", "c", 3)], ["a"])
    twice = apply_shifts(apply_shifts(g, [("b", z4.element(2))]), [("b", z4.element(2))])
    assert [e.label for e in twice.edges] == [e.label for e in g.edges]
    with pytest.raises(PreconditionFailed):
        apply_shifts(g, [("b", z4.element(1))])


def test_apply_shifts_checks_every_shift():
    z4 = Z(4)
    g = undirected(z4, [("a", "b", 1), ("b", "c", 3)], ["a"])
    with pytest.raises(PreconditionFailed, match="g\\+g=0"):
        apply_shifts(g, [("a", 2), ("b", 1)])
    with pytest.raises(ValueError, match="unknown vertex"):
        apply_shifts(g, [("a", 2), ("z", 2)])
    # a float or bool twin of a vertex id is not the vertex
    ints = undirected(z4, [(0, 1, 1), (1, 2, 3)], [0])
    for twin in (True, 1.0):
        with pytest.raises(ValueError, match=f"^vertex ids must be ints or strings, got {twin}$"):
            apply_shifts(ints, [(twin, 2)])
    directed = LabelledGraph.build(z4, DIRECTED, [("a", "b", 1)], ())
    # the model is checked once, before the shifts: an empty sequence is refused too
    for shifts in ([("a", 2)], []):
        with pytest.raises(PreconditionFailed, match="orientation-free"):
            apply_shifts(directed, shifts)


def test_apply_shifts_adds_every_shift_at_both_ends():
    rng = random.Random(17)
    group = Z(2, 2)  # every element is its own inverse
    for _ in range(20):
        g = _random_undirected(rng, group, rng.randint(3, 8))
        shifts = [
            (rng.choice(g.vertices), rng.choice(group.elements()))
            for _ in range(rng.randint(0, 6))
        ]
        expected = []
        for e in g.edges:
            label = e.label
            for v, s in shifts:
                if v in (e.u, e.v):
                    label = label + s
            expected.append(label)
        assert [e.label for e in apply_shifts(g, shifts).edges] == expected


def _random_undirected(rng, group, n, extra_parallel=True):
    vertices = list(range(n))
    possible = list(itertools.combinations(vertices, 2))
    m = rng.randint(n - 1, min(len(possible), 2 * n))
    chosen = rng.sample(possible, m)
    if extra_parallel and chosen and rng.random() < 0.4:
        chosen.append(chosen[0])
    elems = group.elements()
    edges = [(u, v, rng.choice(elems)) for u, v in chosen]
    terminals = rng.sample(vertices, rng.randint(2, min(4, n)))
    return LabelledGraph.build(group, UNDIRECTED, edges, terminals, extra_vertices=vertices)


def test_shift_preserves_cycles_and_interior_paths():
    rng = random.Random(11)
    for group in (Z(2), Z(4), Z(2, 2)):
        flips = sorted(
            (g for g in group.elements() if g + g == group.zero() and g != group.zero()),
            key=group.elem_sort_key,
        )
        if not flips:
            continue
        for _ in range(12):
            g = _random_undirected(rng, group, rng.randint(4, 8))
            v = rng.choice(g.vertices)
            shifted = apply_shifts(g, [(v, rng.choice(flips))])
            before = {frozenset(eids): w for _, eids, w in iter_simple_cycles(g, Limits(cycle_cap=10_000))}
            after = {frozenset(eids): w for _, eids, w in iter_simple_cycles(shifted, Limits(cycle_cap=10_000))}
            assert before == after
            for p in enumerate_terminal_paths(g):
                if v not in p.endpoints:
                    assert walk_weight(shifted, p.vertices, p.edge_ids) == p.weight
            assert is_gamma_bipartite(g) == is_gamma_bipartite(shifted)


# --- relabelling: the step table re-valued against a fresh construction ------------

_RELABEL_GROUPS = [Z(2), Z(3), Z(2, 2), Z(4), INTS, make_s3()]
_RELABEL_IDS = [0, 1, 2, 10, -1, "a", "b", "10", "z"]


def _seeded_relabel_graph(rng, group) -> LabelledGraph:
    """Mixed int/str vertex and edge ids, parallel edges, and directed tails where drawn."""
    model = DIRECTED if not group.is_abelian or rng.random() < 0.5 else UNDIRECTED
    vertices = rng.sample(_RELABEL_IDS, rng.randint(2, 8))
    pairs = [tuple(rng.sample(vertices, 2)) for _ in range(rng.randint(1, 12))]
    pairs += [rng.choice(pairs) for _ in range(rng.randint(0, 3))]
    ids = rng.sample([*range(13, 40), *"efghijklmnop"], len(pairs))
    edges = [
        Edge(eid, u, v, random_label(rng, group), rng.choice((u, v)) if model == DIRECTED else None)
        for eid, (u, v) in zip(ids, pairs)
    ]
    terminals = rng.sample(vertices, rng.randint(0, min(3, len(vertices))))
    return LabelledGraph(group, model, vertices, edges, terminals)


def _fresh(graph, labels) -> LabelledGraph:
    """The graph constructed anew with edge i labelled labels[i]."""
    edges = [Edge(e.eid, e.u, e.v, label, e.tail) for e, label in zip(graph.edges, labels)]
    return LabelledGraph(graph.group, graph.model, graph.vertices, edges, graph.terminals)


def _relabel_cases(group, count=40):
    rng = random.Random(f"relabel {group.name}")
    for _ in range(count):
        graph = _seeded_relabel_graph(rng, group)
        # the terminal order is their key order, and graph_tables carries it to each relabelled graph
        assert graph._terminal_order == tuple(sorted(graph.terminals, key=vertex_key))
        yield rng, graph, graph_tables(graph)


@pytest.mark.parametrize("group", _RELABEL_GROUPS, ids=lambda g: g.name)
def test_with_labels_sets_the_tables_of_a_fresh_construction(group):
    for rng, graph, before in _relabel_cases(group):
        labels = [random_label(rng, group) for _ in graph.edges]
        new = dict(zip((e.eid for e in graph.edges), labels))
        # raw values and coordinate lists are checked on the group, as the constructor does
        relabelled = graph.with_labels(lambda e: new[e.eid] if rng.random() < 0.5 else new[e.eid].to_json())
        assert graph_tables(relabelled) == graph_tables(_fresh(graph, labels))
        assert graph_tables(graph) == before


@pytest.mark.parametrize("group", [g for g in _RELABEL_GROUPS if g.is_abelian], ids=lambda g: g.name)
def test_apply_shifts_sets_the_tables_of_a_fresh_construction(group):
    flips = sorted(elements_of_order_at_most_2(group), key=group.elem_sort_key)
    for rng, graph, before in _relabel_cases(group):
        if graph.model != UNDIRECTED:
            continue
        shifts = [(rng.choice(graph.vertices), rng.choice(flips)) for _ in range(rng.randint(0, 4))]
        # label by label on elements: each shift is added at each end it touches
        labels = []
        for e in graph.edges:
            label = e.label
            for v, g in shifts:
                for end in (e.u, e.v):
                    if end == v:
                        label = label + g
            labels.append(label)
        assert graph_tables(apply_shifts(graph, shifts)) == graph_tables(_fresh(graph, labels))
        assert graph_tables(graph) == before


@pytest.mark.parametrize("group", [g for g in _RELABEL_GROUPS if g.is_abelian], ids=lambda g: g.name)
def test_reduce_weight_to_zero_sets_the_tables_of_a_fresh_construction(group):
    for rng, graph, before in _relabel_cases(group):
        if graph.model != UNDIRECTED:
            continue
        g = random_label(rng, group)
        # label by label on elements: g is subtracted once per terminal end
        labels = []
        for e in graph.edges:
            label = e.label
            for end in (e.u, e.v):
                if end in graph.terminals:
                    label = label - g
            labels.append(label)
        reduced = reduce_weight_to_zero(graph, g + g, g)
        assert graph_tables(reduced) == graph_tables(_fresh(graph, labels))
        assert graph_tables(graph) == before


def test_with_labels_raises_what_the_group_raises():
    s3 = make_s3()
    graph = LabelledGraph.build(s3, DIRECTED, [("a", "b", 1), ("b", "c", 2)], ["a", "c"])
    with pytest.raises(GroupMismatchError):
        graph.with_labels(lambda e: Z(6).element(1))
    with pytest.raises(ValueError) as raised:
        graph.with_labels(lambda e: 6)
    assert str(raised.value) == "element index 6 out of range for S3"


def test_simple_cycle_enumeration_against_networkx():
    rng = random.Random(23)
    z2 = Z(2)
    for _ in range(25):
        n = rng.randint(3, 7)
        vertices = list(range(n))
        possible = list(itertools.combinations(vertices, 2))
        chosen = rng.sample(possible, rng.randint(n - 1, len(possible)))
        g = undirected(z2, [(u, v, 0) for u, v in chosen], [], extra=vertices)
        ours = {frozenset(vs[:-1]) for vs, _, _ in iter_simple_cycles(g)}
        h = nx.Graph(chosen)
        theirs = {frozenset(c) for c in nx.simple_cycles(h)}
        assert ours == theirs


def _cycles_then_limit(cycles) -> list:
    """What a cycle enumeration yields, then the message of the LimitExceeded it raises, if any."""
    out = []
    try:
        out.extend(cycles)
    except LimitExceeded as exc:
        out.append(str(exc))
    return out


def _mixed_multigraph(rng, group, model) -> LabelledGraph:
    """Up to 7 vertices and 12 edges, parallel ones likely, ids mixed int and str in random order."""
    vertices = [f"v{i}" if rng.random() < 0.4 else i for i in range(rng.randint(2, 7))]
    ids = [f"e{i}" if rng.random() < 0.4 else i for i in rng.sample(range(50), rng.randint(1, 12))]
    edges = []
    for eid in ids:
        u, v = rng.sample(vertices, 2)
        edges.append(Edge(eid, u, v, random_label(rng, group), rng.choice((u, v)) if model == DIRECTED else None))
    return LabelledGraph(group, model, vertices, edges)


def test_simple_cycles_match_the_edge_set_oracle_on_mixed_multigraphs():
    # the same cycles, weights and order, and the cap raising at the same cycle
    rng = random.Random(28)
    capped = parallel = 0
    for i in range(3000):
        model = DIRECTED if i % 2 else UNDIRECTED
        group = rng.choice([Z(3), Z(2, 2), make_s3()] if model == DIRECTED else [Z(3), Z(2, 2)])
        g = _mixed_multigraph(rng, group, model)
        parallel += g._parallel
        for cap in (3, 10, 100_000):
            ours = _cycles_then_limit(iter_simple_cycles(g, Limits(cycle_cap=cap)))
            assert ours == _cycles_then_limit(oracle_iter_simple_cycles(g, cap)), (g.to_json(), cap)
            capped += bool(ours) and isinstance(ours[-1], str)
    assert capped > 500 and parallel > 1000, (capped, parallel)


def test_gamma_bipartite_examples():
    z2 = Z(2)
    tri = undirected(z2, [("a", "b", 1), ("b", "c", 1), ("a", "c", 0)], [])
    assert is_gamma_bipartite(tri)
    tri_bad = undirected(z2, [("a", "b", 1), ("b", "c", 0), ("a", "c", 0)], [])
    assert not is_gamma_bipartite(tri_bad)
    forest = undirected(Z(4), [("a", "b", 3), ("b", "c", 2)], [])
    assert is_gamma_bipartite(forest)


def test_gamma_bipartite_fast_path_requires_involution_potentials():
    # phi values of order > 2 do not certify zero cycles; this triangle has
    # labels phi(u)+phi(v) for phi=(1,0,0) over Z/4 yet a nonzero cycle.
    z4 = Z(4)
    tri = undirected(z4, [("a", "b", 1), ("a", "c", 1), ("b", "c", 0)], [])
    assert not is_gamma_bipartite(tri)


def test_cycle_cap():
    # six zero-weight triangles sharing one vertex: no potential certificate
    # (labels of order 4 cannot split into involutions), so the cap bites
    z4 = Z(4)
    edges = []
    for i in range(6):
        edges += [("c", f"x{i}", 1), (f"x{i}", f"y{i}", 1), (f"y{i}", "c", 2)]
    g = undirected(z4, edges, [])
    assert is_gamma_bipartite(g, Limits(cycle_cap=6))
    # the cap counts cycles over all start vertices together
    with pytest.raises(LimitExceeded, match="^enumerated simple cycles exceeds limit 5$"):
        is_gamma_bipartite(g, Limits(cycle_cap=5))


def _k4(group, labels):
    names = ["a", "b", "c", "d"]
    pairs = list(itertools.combinations(names, 2))
    return LabelledGraph.build(
        group, UNDIRECTED, [(u, v, l) for (u, v), l in zip(pairs, labels)], []
    )


def test_normalize_all_zero_is_noop():
    z2 = Z(2)
    g = _k4(z2, [0] * 6)
    shifts, out = normalize_to_zero(g)
    assert shifts == []
    assert all(e.label == z2.zero() for e in out.edges)


def test_normalize_potential_generated_k4():
    z2 = Z(2)
    phi = {"a": 1, "b": 0, "c": 0, "d": 0}
    pairs = list(itertools.combinations("abcd", 2))
    g = LabelledGraph.build(
        z2, UNDIRECTED, [(u, v, (phi[u] + phi[v]) % 2) for u, v in pairs], []
    )
    shifts, out = normalize_to_zero(g)
    assert all(e.label == z2.zero() for e in out.edges)
    # replaying the sequence on the input gives all-zero; replaying it again
    # (shifts are involutions) recovers the input exactly
    replay = apply_shifts(g, shifts)
    assert all(e.label == z2.zero() for e in replay.edges)
    back = apply_shifts(replay, shifts)
    assert [e.label for e in back.edges] == [e.label for e in g.edges]


def test_normalize_with_parallel_edges():
    # in a 3-connected zero-cycle labelling, parallel edges carry equal labels;
    # normalization must treat them like a single edge
    z2 = Z(2)
    phi = {"a": 1, "b": 0, "c": 1, "d": 0}
    pairs = list(itertools.combinations("abcd", 2)) + [("a", "b")]
    g = LabelledGraph.build(
        z2, UNDIRECTED, [(u, v, (phi[u] + phi[v]) % 2) for u, v in pairs], []
    )
    shifts, out = normalize_to_zero(g)
    assert all(e.label == z2.zero() for e in out.edges)
    assert apply_shifts(apply_shifts(g, shifts), shifts).to_json() == g.to_json()


def test_three_blocks_with_parallel_edges():
    z4 = Z(4)
    g = LabelledGraph.build(
        z4,
        UNDIRECTED,
        [
            ("a", "b", 1), ("a", "b", 3),          # parallel pair
            ("a", "c", 0), ("b", "c", 0),
            ("a", "d", 0), ("b", "d", 0),
        ],
        [],
    )
    blocks = three_blocks(g)
    abn = [b for b in blocks if set(b.vertices) >= {"a", "b"}]
    assert abn
    for block in abn:
        ab_labels = sorted(
            e.label.to_json()[0] for e in block.block_graph.edges if {e.u, e.v} == {"a", "b"}
        )
        # distinct parallel weights become distinct block edges
        assert 1 in ab_labels and 3 in ab_labels
    # deterministic output
    from gammapath.jsonio import dumps

    assert dumps([b.to_json() for b in three_blocks(g)]) == dumps(
        [b.to_json() for b in three_blocks(g)]
    )


def test_normalize_rejects_nonzero_cycles():
    z2 = Z(2)
    with pytest.raises(PreconditionFailed):
        normalize_to_zero(_k4(z2, [1] * 6))


def test_normalize_rejects_low_connectivity():
    z2 = Z(2)
    path = undirected(z2, [("a", "b", 0), ("b", "c", 0)], [])
    with pytest.raises(PreconditionFailed):
        normalize_to_zero(path)


def _oracle_blocks(graph):
    """Independent brute-force 3-block oracle straight from the definition."""
    verts = graph.vertices

    @functools.cache
    def separated(u, v):
        for r in (0, 1, 2):
            for cut in itertools.combinations([x for x in verts if x not in (u, v)], r):
                rest = graph.without_vertices(cut)
                if v not in component_of(rest, u):
                    return True
        return False

    blocks = set()
    for size in range(len(verts), 2, -1):
        for cand in itertools.combinations(verts, size):
            if any(set(cand) < b for b in blocks):
                continue
            if all(not separated(u, v) for u, v in itertools.combinations(cand, 2)):
                blocks.add(frozenset(cand))
    return {b for b in blocks if not any(b < other for other in blocks)}


def test_three_blocks_k4():
    z2 = Z(2)
    g = _k4(z2, [0] * 6)
    blocks = three_blocks(g)
    assert len(blocks) == 1
    block = blocks[0]
    assert block.vertices == ("a", "b", "c", "d")
    # all-zero labels realize exactly one weight per pair
    assert len(block.block_graph.edges) == 6
    assert all(e.label == z2.zero() for e in block.block_graph.edges)


def test_three_blocks_of_a_large_wheel_without_deep_recursion():
    # a 3-connected graph is one block: one clique of all n vertices in the inseparability graph
    n = 200
    g = undirected(Z(2), [(0, i, 0) for i in range(1, n)] + [(i, i % (n - 1) + 1, 0) for i in range(1, n)], [])
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        blocks = three_blocks(g)
    finally:
        sys.setrecursionlimit(old_limit)
    assert [b.vertices for b in blocks] == [tuple(range(n))]


def test_three_blocks_two_triangles():
    z2 = Z(2)
    g = undirected(
        z2,
        [("a", "b", 0), ("a", "c", 0), ("b", "c", 0), ("a", "d", 0), ("b", "d", 0)],
        [],
    )
    blocks = three_blocks(g)
    assert sorted(b.vertices for b in blocks) == [("a", "b", "c"), ("a", "b", "d")]


def test_three_blocks_subdivided_k5():
    z4 = Z(4)
    branch = list(range(5))
    edges = []
    extra = []
    label_of = {}
    for i, (u, v) in enumerate(itertools.combinations(branch, 2)):
        mid = f"m{u}{v}"
        extra.append(mid)
        edges.append((u, mid, 1))
        edges.append((mid, v, 2))
        label_of[(u, v)] = 3
    g = LabelledGraph.build(z4, UNDIRECTED, edges, [], extra_vertices=branch + extra)
    blocks = three_blocks(g)
    # the branch vertices form a block; each subdivision triple {u, m, v} is
    # pairwise inseparable too (adjacent vertices admit no vertex cut), so the
    # decomposition also reports those ten triples
    branch_blocks = [b for b in blocks if b.vertices == tuple(branch)]
    assert len(branch_blocks) == 1
    assert len(blocks) == 11
    bg = branch_blocks[0].block_graph
    for u, v in itertools.combinations(branch, 2):
        labels = [e.label for e in bg.edges if {e.u, e.v} == {u, v}]
        assert labels == [z4.element(3)]
    # every subdivision vertex shows up in exactly one bridge with 2 attachments
    assert all(len(b.attachments) == 2 for b in branch_blocks[0].bridges)


def test_block_weights_raise_when_a_path_is_cut():
    # K4 with every edge subdivided: block vertices meet only through two-edge paths
    edges = [(u, f"m{u}{v}", 1) for u, v in itertools.combinations(range(4), 2)]
    edges += [(f"m{u}{v}", v, 0) for u, v in itertools.combinations(range(4), 2)]
    g = undirected(Z(2), edges, [])
    with pytest.raises(LimitExceeded) as info:
        three_blocks(g, Limits(max_len=1))
    assert str(info.value) == "path length during block-weight enumeration exceeds limit 1"


def _block_edges(blocks):
    return [(b.vertices, [(e.u, e.v, e.label.value) for e in b.block_graph.edges]) for b in blocks]


def _max_paths_boundary(graph, k):
    """three_blocks passes at max_paths = k and raises at k - 1."""
    three_blocks(graph, Limits(max_paths=k))
    with pytest.raises(LimitExceeded) as info:
        three_blocks(graph, Limits(max_paths=k - 1))
    assert str(info.value) == f"enumerated paths exceeds limit {k - 1}"


def test_block_weights_of_a_pair_joined_only_by_chords():
    # K4 whose a-b edge is tripled with labels 0, 1, 1: the pair has all of Z/2 after two
    # chords, so the third is never counted
    edges = [("a", "b", 0), ("a", "b", 1), ("a", "b", 1)]
    edges += [(u, v, 0) for u, v in itertools.combinations("abcd", 2) if (u, v) != ("a", "b")]
    g = undirected(Z(2), edges, [])
    ab = [("a", "b", 0), ("a", "b", 1)]
    rest = [("a", "c", 0), ("a", "d", 0), ("b", "c", 0), ("b", "d", 0), ("c", "d", 0)]
    assert _block_edges(three_blocks(g)) == [(("a", "b", "c", "d"), ab + rest)]
    # 2 paths on {a, b} and one on each other pair
    _max_paths_boundary(g, 7)


def test_block_weights_of_a_pair_with_a_chord_and_a_bridge():
    # K4 plus a path a-x-b: on block abcd the pair {a, b} has the chord and the bridge {x},
    # on block abx it has the chord and the bridge {c, d}
    edges = [(u, v, 0) for u, v in itertools.combinations("abcd", 2)] + [("a", "x", 1), ("x", "b", 0)]
    g = undirected(Z(2), edges, [])
    k4 = [("a", "c", 0), ("a", "d", 0), ("b", "c", 0), ("b", "d", 0), ("c", "d", 0)]
    assert _block_edges(three_blocks(g)) == [
        (("a", "b", "c", "d"), [("a", "b", 0), ("a", "b", 1)] + k4),
        (("a", "b", "x"), [("a", "b", 0), ("a", "x", 1), ("b", "x", 0)]),
    ]
    # block abx: the chord and the four paths through c and d, then one chord per other pair
    _max_paths_boundary(g, 7)


def test_three_blocks_match_oracle_random():
    rng = random.Random(5)
    z2 = Z(2)
    for _ in range(20):
        g = _random_undirected(rng, z2, rng.randint(4, 9), extra_parallel=False)
        got = {frozenset(b.vertices) for b in three_blocks(g)}
        assert got == _oracle_blocks(g)


def _pendants_and_parallels(rng, group, n):
    """A sparse graph with parallel copies of some edges and pendant paths or
    cycles, each hanging off one vertex."""
    edges = [(e.u, e.v, e.label) for e in sparse_graph(rng, group, n, rng.randint(n - 1, 2 * n)).edges]
    edges += [(u, v, random_label(rng, group)) for u, v, _ in rng.sample(edges, rng.randint(0, 3))]
    size = n
    for _ in range(rng.randint(0, 2)):
        at = rng.randrange(n)
        length = rng.randint(1, 4)
        chain = [at, *range(size, size + length)] + ([at] if rng.random() < 0.5 else [])
        size += length
        edges += [(x, y, random_label(rng, group)) for x, y in zip(chain, chain[1:])]
    return undirected(group, edges, [], extra=range(size))


@pytest.mark.parametrize("group", [Z(3), Z(2, 2), Z(4), INTS], ids=lambda g: g.name)
def test_block_weights_match_the_all_paths_oracle(group):
    rng = random.Random(29)
    seen = set()
    for i in range(60):
        if i % 4 == 3:
            # the benchmark's blocks shape: 12-14 vertices and 2n edges
            n = 12 + i % 3
            g = sparse_graph(rng, group, n, 2 * n)
        else:
            g = _pendants_and_parallels(rng, group, rng.randint(4, 9))
        for block in three_blocks(g):
            bset = set(block.vertices)
            assert block.bridges == oracle_bridges(g, bset)
            weights = oracle_block_path_weights(g, bset, Limits())
            want = [
                (u, v, w)
                for u, v in itertools.combinations(block.vertices, 2)
                for w in weights.get((u, v), ())
            ]
            edges = sorted(block.block_graph.edges, key=lambda e: int(e.eid[1:]))
            assert [(e.u, e.v, e.label) for e in edges] == want
            seen.update(len(b.attachments) for b in block.bridges)
            seen.update("whole group" for w in weights.values() if len(w) == group.order)
    # the draw has pendant bridges and, for a finite group, pairs that realize all of it
    assert seen >= {1, 2} | ({"whole group"} if group.is_finite else set())


def test_three_blocks_with_mixed_vertex_ids():
    # K4 on a, b, c, d with two bridges on {a, b}: one through the int vertex 1, one through "x"
    edges = [(u, v, 0) for u, v in itertools.combinations("abcd", 2)]
    edges += [("a", 1, 0), (1, "b", 1), ("a", "x", 0), ("x", "b", 0)]
    blocks = three_blocks(undirected(Z(2), edges, []))
    assert [b.vertices for b in blocks] == [(1, "a", "b"), ("a", "b", "c", "d"), ("a", "b", "x")]
    assert [b.vertices for b in blocks[1].bridges if b.vertices] == [(1,), ("x",)]
    ab = [e.label for e in blocks[1].block_graph.edges if (e.u, e.v) == ("a", "b")]
    assert ab == [Z(2).element(0), Z(2).element(1)]


def test_block_weights_skip_a_bridge_with_one_attachment():
    # K4 with a 12-cycle through its vertex 0, which no path between block vertices enters
    ring = [0, *(f"c{i}" for i in range(11)), 0]
    edges = [(u, v, 1) for u, v in itertools.combinations(range(4), 2)]
    edges += [(x, y, 1) for x, y in zip(ring, ring[1:])]
    blocks = three_blocks(undirected(Z(2), edges, []), Limits(max_len=3))
    assert [b.vertices for b in blocks] == [(0, 1, 2, 3)]
    assert [b.attachments for b in blocks[0].bridges if b.vertices] == [(0,)]
    assert [e.label for e in blocks[0].block_graph.edges] == [Z(2).element(1)] * 6


def test_block_weights_stop_at_the_whole_group():
    # K4 on a, b, c, d, two more a-b edges, and the path a-a1-a2-a3-b, which the
    # search from a enters first and cuts at max_len = 2
    edges = [(u, v, 0) for u, v in itertools.combinations("abcd", 2)]
    edges += [("a", "b", 1), ("a", "b", 2)]
    edges += [("a", "a1", 1), ("a1", "a2", 0), ("a2", "a3", 0), ("a3", "b", 0)]
    # the direct a-b edges realize all of Z/3, so the cut cannot change the answer
    blocks = three_blocks(undirected(Z(3), edges, []), Limits(max_len=2))
    assert [b.vertices for b in blocks] == [("a", "b", "c", "d")]
    ab = [e.label for e in blocks[0].block_graph.edges if (e.u, e.v) == ("a", "b")]
    assert ab == [Z(3).element(x) for x in (0, 1, 2)]
    # over Z/5 the pair stays incomplete, so its search runs to its end and reports the cut
    with pytest.raises(LimitExceeded) as info:
        three_blocks(undirected(Z(5), edges, []), Limits(max_len=2))
    assert str(info.value) == "path length during block-weight enumeration exceeds limit 2"


def test_block_weight_path_cap_counts_over_all_pairs():
    # block {a, b, c} has two a-b paths (the edge and a-d-b) and one path for each other pair
    edges = [("a", "b", 0), ("a", "c", 0), ("b", "c", 0), ("a", "d", 0), ("b", "d", 0)]
    g = undirected(Z(2), edges, [])
    assert [b.vertices for b in three_blocks(g, Limits(max_paths=4))] == [("a", "b", "c"), ("a", "b", "d")]
    with pytest.raises(LimitExceeded) as info:
        three_blocks(g, Limits(max_paths=3))
    assert str(info.value) == "enumerated paths exceeds limit 3"


def test_fan_extraction_triangle():
    z3 = Z(3)
    g = LabelledGraph.build(
        z3,
        UNDIRECTED,
        [
            ("c1", "c2", 1), ("c2", "c3", 0), ("c3", "c1", 0),   # cycle, weight 1
            ("a1", "c1", 0), ("a2", "c2", 0), ("a3", "c3", 0),   # fans
        ],
        ["a1", "a2", "a3"],
    )
    fans = [
        PathWitness(("a1", "c1"), (3,), z3.zero()),
        PathWitness(("a2", "c2"), (4,), z3.zero()),
        PathWitness(("a3", "c3"), (5,), z3.zero()),
    ]
    path = nonzero_terminal_path_from_fans(g, ("c1", "c2", "c3", "c1"), (0, 1, 2), fans)
    path.validate(g)
    assert path.weight != z3.zero()
    assert path.weight in {z3.element(1), z3.element(2)}


def test_fan_extraction_z2_arcs():
    z2 = Z(2)
    g = LabelledGraph.build(
        z2,
        UNDIRECTED,
        [
            ("c1", "c2", 1), ("c2", "c3", 1), ("c3", "c1", 1),
            ("a1", "c1", 0), ("a2", "c2", 0), ("a3", "c3", 0),
        ],
        ["a1", "a2", "a3"],
    )
    fans = [
        PathWitness(("a1", "c1"), (3,), z2.zero()),
        PathWitness(("a2", "c2"), (4,), z2.zero()),
        PathWitness(("a3", "c3"), (5,), z2.zero()),
    ]
    path = nonzero_terminal_path_from_fans(g, ("c1", "c2", "c3", "c1"), (0, 1, 2), fans)
    assert path.weight == z2.element(1)


def test_fan_extraction_rejects_zero_cycle():
    z3 = Z(3)
    g = LabelledGraph.build(
        z3,
        UNDIRECTED,
        [("c1", "c2", 0), ("c2", "c3", 0), ("c3", "c1", 0), ("a1", "c1", 0)],
        ["a1"],
    )
    with pytest.raises(PreconditionFailed):
        nonzero_terminal_path_from_fans(
            g, ("c1", "c2", "c3", "c1"), (0, 1, 2), [PathWitness(("a1", "c1"), (3,), z3.zero())] * 3
        )


@pytest.mark.parametrize(
    "cycle_edges, detail",
    [((0, 1), "walk must alternate vertices and edges"), ((0, 1, 3), "edge 3 does not join 'c3' and 'c1'")],
    ids=["too-few-edges", "edge-off-the-cycle"],
)
def test_fan_extraction_weighs_the_cycle_on_its_vertices(cycle_edges, detail):
    # the first fan pair is a1 and a3, so a splice would step from c1 to c3 and back
    z3 = Z(3)
    g = LabelledGraph.build(
        z3,
        UNDIRECTED,
        [("c1", "c2", 1), ("c2", "c3", 0), ("c3", "c1", 0), ("a1", "c1", 0), ("a2", "c2", 0), ("a3", "c3", 0)],
        ["a1", "a2", "a3"],
    )
    fans = [
        PathWitness(("a1", "c1"), (3,), z3.zero()),
        PathWitness(("a3", "c3"), (5,), z3.zero()),
        PathWitness(("a2", "c2"), (4,), z3.zero()),
    ]
    with pytest.raises(ValueError) as info:
        nonzero_terminal_path_from_fans(g, ("c1", "c2", "c3", "c1"), cycle_edges, fans)
    assert str(info.value) == detail


@pytest.mark.parametrize(
    "fan, detail",
    [((("a1", "p", "q", "p", "q", "c1"), (5, 6, 6, 6, 7)), "fan 0: witness revisits a vertex"),
     ((("a1", "c1"), (4,)), "fan 0: edge 4 does not join 'a1' and 'c1'")],
    ids=["fan-revisits", "edge-off-the-fan"],
)
def test_fans_are_checked_as_chain_parts_are(fan, detail):
    # the first splice runs through fan 0; a fan that is not a path is bad input, not an internal error
    z3 = Z(3)
    g = undirected(
        z3,
        [("c1", "c2", 1), ("c2", "c3", 0), ("c3", "c1", 0), ("a2", "c2", 0), ("a3", "c3", 0),
         ("a1", "p", 0), ("p", "q", 0), ("q", "c1", 0)],
        ["a1", "a2", "a3"],
    )
    fans = [PathWitness(*fan, z3.zero())]
    fans += [PathWitness((a, c), (e,), z3.zero()) for a, c, e in (("a2", "c2", 3), ("a3", "c3", 4))]
    with pytest.raises(PreconditionFailed) as info:
        nonzero_terminal_path_from_fans(g, ("c1", "c2", "c3", "c1"), (0, 1, 2), fans)
    assert str(info.value) == detail


def _random_fan_case(rng):
    """A cycle c0..c(m-1) with three fans from terminals t0, t1, t2, each foot on its own cycle
    vertex.  The cycle is handed over from a random start in a random direction, and the fans
    in a random order, each from either end."""
    group = rng.choice([Z(2), Z(3), Z(4), Z(5), Z(2, 2), INTS])
    m = rng.randint(3, 7)
    ring = [f"c{i}" for i in range(m)]
    edges = [(ring[i], ring[(i + 1) % m], random_label(rng, group)) for i in range(m)]
    walks = []
    for f, foot in enumerate(rng.sample(ring, 3)):
        vs = [f"t{f}", *(f"f{f}.{t}" for t in range(rng.randint(0, 2))), foot]
        walks.append((tuple(vs), tuple(range(len(edges), len(edges) + len(vs) - 1))))
        edges += [(u, v, random_label(rng, group)) for u, v in zip(vs, vs[1:])]
    g = LabelledGraph.build(group, UNDIRECTED, edges, ["t0", "t1", "t2"])
    start = rng.randrange(m)
    cycle_vertices = tuple(ring[start:] + ring[: start + 1])
    cycle_edges = tuple(range(start, m)) + tuple(range(start))
    if rng.random() < 0.5:
        cycle_vertices, cycle_edges = cycle_vertices[::-1], cycle_edges[::-1]
    rng.shuffle(walks)
    fans = []
    for vs, es in walks:
        if rng.random() < 0.5:
            vs, es = vs[::-1], es[::-1]
        fans.append(PathWitness(vs, es, walk_weight(g, vs, es)))
    return g, cycle_vertices, cycle_edges, fans


def test_fan_extraction_matches_the_cycle_stepper():
    rng = random.Random(34)
    found = rejected = 0
    for _ in range(1000):
        g, cycle_vertices, cycle_edges, fans = _random_fan_case(rng)
        if walk_weight(g, cycle_vertices, cycle_edges) == g.group.zero():
            with pytest.raises(PreconditionFailed, match="cycle weight must be nonzero"):
                nonzero_terminal_path_from_fans(g, cycle_vertices, cycle_edges, fans)
            rejected += 1
            continue
        assert nonzero_terminal_path_from_fans(g, cycle_vertices, cycle_edges, fans) == oracle_fan_path(
            g, cycle_vertices, cycle_edges, fans
        )
        found += 1
    assert found > 500 and rejected > 50


def test_witness_validation_catches_corruption():
    z2 = Z(2)
    g = undirected(z2, [("a", "x", 1), ("x", "b", 1)], ["a", "b"])
    good = enumerate_terminal_paths(g)[0]
    good.validate(g)
    bad = PathWitness(good.vertices, good.edge_ids, z2.element(1))
    with pytest.raises(InternalInvariantError):
        bad.validate(g)
    not_a_path = PathWitness(("a", "x"), (0,), z2.element(1))
    with pytest.raises(InternalInvariantError):
        not_a_path.validate(g)


def test_a_witness_of_a_walk_weighs_it_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return walk_weight(*args)

    monkeypatch.setattr(graphs, "walk_weight", counted)
    g = undirected(Z(2), [("a", "x", 1), ("x", "b", 1)], ["a", "b"])
    for vertices, edge_ids in ((("a", "x", "b"), (0, 1)), (("a",), ())):
        calls.clear()
        witness = PathWitness.of(g, vertices, edge_ids)
        assert len(calls) == 1 and witness.trivial == (not edge_ids)
        witness.validate(g)
        assert len(calls) == 2


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=40, deadline=None)
@given(
    order=st.integers(min_value=2, max_value=7),
    labels=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=6),
    tails=st.lists(st.booleans(), min_size=6, max_size=6),
)
def test_reverse_traversal_negates_weight(order, labels, tails):
    group = Z(order)
    edges = []
    for i, lab in enumerate(labels):
        tail = i if tails[i] else i + 1
        edges.append((i, i + 1, lab % order, tail))
    g = LabelledGraph.build(group, DIRECTED, edges, [0, len(labels)])
    verts = tuple(range(len(labels) + 1))
    eids = tuple(range(len(labels)))
    fwd = walk_weight(g, verts, eids)
    back = walk_weight(g, tuple(reversed(verts)), tuple(reversed(eids)))
    assert back == -fwd


def test_graph_json_round_trip():
    z4 = Z(4)
    g = LabelledGraph.build(z4, DIRECTED, [("a", "b", 1, "b"), ("b", "c", 2, "b")], ["a", "c"])
    from gammapath.jsonio import graph_from_json

    again = graph_from_json(g.to_json())
    assert again.to_json() == g.to_json()
    assert [e.tail for e in again.edges] == [e.tail for e in g.edges]


def test_normalize_reports_a_missing_potential_as_an_internal_error(monkeypatch):
    # a 3-connected zero-cycle labelling always has an involution potential;
    # losing it must surface as NormalizationFailed, not as a wrong answer
    import gammapath.graphs as graphs
    from gammapath.errors import NormalizationFailed

    g = _k4(Z(2), [0] * 6)
    monkeypatch.setattr(graphs, "_potential_certificate", lambda graph: None)
    with pytest.raises(NormalizationFailed):
        normalize_to_zero(g)
