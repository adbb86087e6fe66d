"""The int path kernel against the GroupElem kernel it replaced, and one
search per terminal path against the search from both ends."""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from gammapath.errors import DEFAULT_LIMITS, Limits, LimitExceeded
from gammapath.frame import _first_zero_path_disjoint_from
from gammapath.graphs import (
    DIRECTED,
    UNDIRECTED,
    Edge,
    LabelledGraph,
    enumerate_terminal_paths,
    search_paths,
    search_terminal_paths,
    vertex_key,
)

from util import (
    INTS,
    Z,
    make_s3,
    oracle_enumerate_terminal_paths,
    oracle_first_zero_path_disjoint_from,
    oracle_from_smaller_end,
    oracle_search_paths,
)

# S3 is nonabelian, so it lives in the directed model only
CASES = [
    (Z(4), DIRECTED), (Z(4), UNDIRECTED),
    (Z(2, 4), DIRECTED), (Z(2, 4), UNDIRECTED),
    (make_s3(), DIRECTED),
    (INTS, DIRECTED), (INTS, UNDIRECTED),
]


def _labels(group):
    return [INTS.element(k) for k in range(-3, 4)] if group == INTS else group.elements()


def _random_graph(rng, group, model, parallel=True):
    """Mixed int/str vertex and edge ids, some parallel edges unless parallel is false."""
    n = rng.randint(4, 8)
    vertices = [i if rng.random() < 0.5 else f"v{i}" for i in range(n)]
    possible = list(itertools.combinations(vertices, 2))
    pairs = rng.sample(possible, rng.randint(n - 1, min(len(possible), 2 * n)))
    if parallel:
        pairs += rng.sample(pairs, rng.randint(0, 2))
    labels = _labels(group)
    edges = [
        Edge(k if rng.random() < 0.5 else f"e{k}", u, v, rng.choice(labels),
             rng.choice((u, v)) if model == DIRECTED else None)
        for k, (u, v) in enumerate(pairs)
    ]
    terminals = rng.sample(vertices, rng.randint(2, min(4, n)))
    return LabelledGraph(group, model, vertices, edges, terminals)


def _outcome(search, accept, value, graph, forbidden, max_len, max_count):
    """Every yielded (vertices, edge ids, weight value), then the LimitExceeded text or None."""
    sources = [a for a in sorted(graph.terminals, key=vertex_key) if a not in forbidden]
    got = []
    try:
        for vs, es, w in search(
            graph, sources, graph.terminals, accept,
            forbidden=forbidden, max_len=max_len, max_count=max_count, cut="path length",
        ):
            got.append((vs, es, value(w)))
    except LimitExceeded as exc:
        return got, str(exc)
    return got, None


@pytest.mark.parametrize("group,model", CASES, ids=lambda c: getattr(c, "name", c))
def test_int_kernel_matches_groupelem_oracle(group, model):
    rng = random.Random(f"{group.name}-{model}")
    raised = {"complete": 0, "cut": 0, "overflow": 0}
    for _ in range(30):
        g = _random_graph(rng, group, model)
        forbidden = frozenset(rng.sample(g.vertices, rng.randint(0, 2)))
        n = len(g.vertices)
        for name, max_len, max_count in (("complete", n, 10**6), ("cut", 2, 10**6), ("overflow", n, 2)):
            ours = _outcome(search_paths, oracle_from_smaller_end, lambda w: w, g, forbidden, max_len, max_count)
            theirs = _outcome(
                oracle_search_paths, oracle_from_smaller_end, lambda w: w.value, g, forbidden, max_len, max_count
            )
            assert ours == theirs
            raised[name] += ours[1] is not None
    # the complete runs finish, and each limit is hit on some graphs
    assert raised["complete"] == 0 and raised["cut"] > 0 and raised["overflow"] > 0


@pytest.mark.parametrize("group,model", CASES, ids=lambda c: getattr(c, "name", c))
def test_terminal_paths_keep_the_key_order(group, model):
    rng = random.Random(f"order-{group.name}-{model}")
    matched = 0
    for _ in range(30):
        g = _random_graph(rng, group, model)
        weight = rng.choice(_labels(group))
        for target in (None, weight):
            ours = enumerate_terminal_paths(g, weight=target)
            assert ours == oracle_enumerate_terminal_paths(g, weight=target, limits=DEFAULT_LIMITS)
            for p in ours:
                p.validate(g)  # the stored weight is the walk weight
                assert target is None or p.weight == target
            matched += bool(target is not None and ours)
    assert matched > 0


@pytest.mark.parametrize("group,model", CASES, ids=lambda c: getattr(c, "name", c))
def test_terminal_paths_of_a_simple_graph_leave_the_kernel_in_key_order(group, model):
    rng = random.Random(f"simple-{group.name}-{model}")
    zero = group.zero().value
    for _ in range(30):
        g = _random_graph(rng, group, model, parallel=False)
        assert not g._parallel
        raw = list(search_terminal_paths(g, g.terminals, limits=DEFAULT_LIMITS, cut="path length"))
        queries = [({}, raw), ({"nonzero": True}, [r for r in raw if r[2] != zero]),
                   ({"keep": lambda vs, es: len(es) % 2}, [r for r in raw if len(r[1]) % 2])]
        if model == UNDIRECTED:  # no member is kept reversed
            weight = rng.choice(_labels(group))
            queries.append(({"weight": weight}, [r for r in raw if r[2] == weight.value]))
        for kw, kept in queries:
            ours = enumerate_terminal_paths(g, **kw)
            assert [(p.vertices, p.edge_ids, p.weight.value) for p in ours] == kept
            if "keep" not in kw:
                assert ours == oracle_enumerate_terminal_paths(g, limits=DEFAULT_LIMITS, **kw)
            # the members of one weight share one element
            assert len({id(p.weight) for p in ours}) == len({p.weight for p in ours})


def test_parallel_edges_put_the_terminal_paths_in_key_order():
    # the kernel meets a-0-x-b, a-0-x-c, a-1-x-b, a-1-x-c; key order puts b before c
    edges = [("a", "x", 1), ("a", "x", 2), ("x", "b", 0), ("x", "c", 0)]
    g = LabelledGraph.build(Z(3), UNDIRECTED, edges, ["a", "b", "c"])
    assert g._parallel
    ours = enumerate_terminal_paths(g)
    assert [(p.vertices, p.edge_ids) for p in ours] == [
        (("a", "x", "b"), (0, 2)), (("a", "x", "b"), (1, 2)),
        (("a", "x", "c"), (0, 3)), (("a", "x", "c"), (1, 3)),
        (("b", "x", "c"), (2, 3)),
    ]
    assert ours == oracle_enumerate_terminal_paths(g, limits=DEFAULT_LIMITS)


def test_a_reversed_weight_member_is_put_in_key_order():
    # weight 2 over Z/3: a-b weighs 1 from a and is kept as b-a; a-c weighs 2 as met
    z3 = Z(3)
    g = LabelledGraph.build(z3, DIRECTED, [("a", "b", 1, "a"), ("a", "c", 2, "a")], ["a", "b", "c"])
    assert not g._parallel
    ours = enumerate_terminal_paths(g, weight=z3.element(2))
    assert [p.vertices for p in ours] == [("a", "c"), ("b", "a")]
    assert ours == oracle_enumerate_terminal_paths(g, weight=z3.element(2), limits=DEFAULT_LIMITS)


def _result(call):
    """(what call returns, None), or (None, the text of the LimitExceeded it raises)."""
    try:
        return call(), None
    except LimitExceeded as exc:
        return None, str(exc)


def _compare(ours, theirs, complete) -> str:
    """Our outcome is the oracle's, except where the oracle's only cut lay in the
    search from the largest terminal: there ours raises nothing and is complete."""
    if ours == theirs:
        if theirs[1] is None:
            return "same"
        return "cut" if theirs[1].startswith("path length") else "overflow"
    assert ours[1] is None and theirs[1].startswith("path length")
    assert ours[0] == complete()
    return "uncut"


def test_one_search_per_terminal_path_matches_the_search_from_both_ends():
    seen = Counter()
    for group, model in CASES:
        rng = random.Random(f"once-{group.name}-{model}")
        for _ in range(30):
            g = _random_graph(rng, group, model)
            n = len(g.vertices)
            subset = rng.sample(g.vertices, rng.randint(2, n))
            blocked = frozenset(rng.sample(g.vertices, rng.randint(0, 2)))
            queries = ({}, {"weight": rng.choice(_labels(group))}, {"nonzero": True}, {"terminals": subset})
            complete = Limits(max_len=n, max_paths=10**6)
            for limits in (complete, Limits(max_len=2, max_paths=10**6), Limits(max_len=n, max_paths=2)):
                for kw in queries:
                    ours = _result(lambda: enumerate_terminal_paths(g, limits=limits, **kw))
                    theirs = _result(lambda: oracle_enumerate_terminal_paths(g, limits=limits, **kw))
                    seen[_compare(ours, theirs, lambda: oracle_enumerate_terminal_paths(g, limits=complete, **kw))] += 1
                    if ours[0] and "weight" in kw:
                        seen["reversed"] += any(
                            vertex_key(p.vertices[0]) > vertex_key(p.vertices[-1]) for p in ours[0]
                        )
                ours = _result(lambda: _first_zero_path_disjoint_from(g, blocked, limits))
                theirs = _result(lambda: oracle_first_zero_path_disjoint_from(g, blocked, limits))
                seen[_compare(ours, theirs, lambda: oracle_first_zero_path_disjoint_from(g, blocked, complete))] += 1
                seen["zero path"] += bool(ours[0])
    # every outcome occurs: complete answers, both limits, the cut that no
    # longer raises, zero paths found, and weight members kept reversed
    assert min(seen[k] for k in ("same", "cut", "overflow", "uncut", "zero path", "reversed")) > 0


def test_a_cut_between_two_terminals_still_raises():
    z2 = Z(2)
    limits = Limits(max_len=2)
    # b, the largest terminal, starts no search; a-x-y-b is cut in the search from a
    edges = [("a", "x", 0, "a"), ("x", "y", 0, "x"), ("y", "b", 0, "y")]
    g = LabelledGraph.build(z2, DIRECTED, edges, ["a", "b"])
    with pytest.raises(LimitExceeded, match="^path length during exhaustive enumeration exceeds limit 2$"):
        enumerate_terminal_paths(g, limits=limits)
    with pytest.raises(LimitExceeded, match="^path length while certifying zero-path absence exceeds limit 2$"):
        _first_zero_path_disjoint_from(g, set(), limits)


def test_a_cut_off_only_the_largest_terminal_no_longer_raises():
    z2 = Z(2)
    limits = Limits(max_len=2)
    # a pendant path hangs off b, the largest terminal, and reaches no other
    edges = [("a", "b", 1, "a"), ("b", "p1", 0, "b"), ("p1", "p2", 0, "p1"), ("p2", "p3", 0, "p2")]
    g = LabelledGraph.build(z2, DIRECTED, edges, ["a", "b"])
    assert [p.vertices for p in enumerate_terminal_paths(g, limits=limits)] == [("a", "b")]
    assert _first_zero_path_disjoint_from(g, set(), limits) is None
    # the search from both ends cut that path in the search from b
    with pytest.raises(LimitExceeded):
        oracle_enumerate_terminal_paths(g, limits=limits)
    with pytest.raises(LimitExceeded):
        oracle_first_zero_path_disjoint_from(g, set(), limits)


def test_a_source_is_forbidden_to_the_searches_after_its_own():
    z2 = Z(2)
    g = LabelledGraph.build(z2, UNDIRECTED, [("a", "b", 0), ("a", "c", 0), ("b", "c", 0)], ["a", "b"])
    blocked: set = set()
    found = [
        vs for vs, _, _ in search_paths(
            g, ["a", "b"], {"a", "b"}, lambda *_: True,
            forbidden=blocked, max_len=3, max_count=10, cut="path length",
        )
    ]
    # a may close a cycle in its own search; b's search no longer meets a
    assert found == [("a", "b"), ("a", "c", "a"), ("a", "c", "b"), ("b", "c", "b")]
    assert blocked == set()  # the caller's set is left as it was
