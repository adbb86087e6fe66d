"""The int path kernel against the GroupElem kernel it replaced."""

from __future__ import annotations

import itertools
import random

import pytest

from gammapath.errors import LimitExceeded
from gammapath.graphs import (
    DIRECTED,
    UNDIRECTED,
    Edge,
    LabelledGraph,
    PathWitness,
    _from_smaller_end,
    enumerate_terminal_paths,
    search_paths,
    vertex_key,
)

from util import (
    INTS,
    Z,
    make_s3,
    oracle_from_smaller_end,
    oracle_path_sort_key,
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


def _random_graph(rng, group, model):
    """Mixed int/str vertex and edge ids, some parallel edges."""
    n = rng.randint(4, 8)
    vertices = [i if rng.random() < 0.5 else f"v{i}" for i in range(n)]
    possible = list(itertools.combinations(vertices, 2))
    pairs = rng.sample(possible, rng.randint(n - 1, min(len(possible), 2 * n)))
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
            ours = _outcome(search_paths, _from_smaller_end(g), lambda w: w, g, forbidden, max_len, max_count)
            theirs = _outcome(
                oracle_search_paths, oracle_from_smaller_end, lambda w: w.value, g, forbidden, max_len, max_count
            )
            assert ours == theirs
            raised[name] += ours[1] is not None
    # the complete runs finish, and each limit is hit on some graphs
    assert raised["complete"] == 0 and raised["cut"] > 0 and raised["overflow"] > 0


def _oracle_terminal_paths(graph, weight):
    """enumerate_terminal_paths on the GroupElem kernel, sorted by vertex and edge-id keys."""
    out = []
    for vs, es, w in oracle_search_paths(
        graph, sorted(graph.terminals, key=vertex_key), graph.terminals, oracle_from_smaller_end,
        max_len=20, max_count=10**6, cut="path length",
    ):
        if weight is None or w == weight:
            out.append(PathWitness(vs, es, w))
        elif graph.model == DIRECTED and -w == weight:
            out.append(PathWitness(tuple(reversed(vs)), tuple(reversed(es)), weight))
    return tuple(sorted(out, key=oracle_path_sort_key))


@pytest.mark.parametrize("group,model", CASES, ids=lambda c: getattr(c, "name", c))
def test_terminal_paths_keep_the_key_order(group, model):
    rng = random.Random(f"order-{group.name}-{model}")
    matched = 0
    for _ in range(30):
        g = _random_graph(rng, group, model)
        weight = rng.choice(_labels(group))
        for target in (None, weight):
            ours = enumerate_terminal_paths(g, weight=target)
            assert ours == _oracle_terminal_paths(g, target)
            for p in ours:
                p.validate(g)  # the stored weight is the walk weight
                assert target is None or p.weight == target
            matched += bool(target is not None and ours)
    assert matched > 0
