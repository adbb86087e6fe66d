"""Layer benchmark: the frame, and zero-path extraction from one subcubic terminal tree.

Times `frame.frame_pack_or_cover` on 100 random directed graphs over Z/3
(`harness.random_labelled_graph`, seed 0, 4-14 vertices, k = 1, 2, 3 in
turn), and `frame.extract_zero_paths` at k = `largest_extractable`, the most
disjoint zero paths the leaf count guarantees, on:

- caterpillars over Z/3: a spine of n vertices, each with one terminal leaf,
  labels drawn from `random.Random(n)`, at n = 200, 400, 800, 1,600, 3,200,
  6,400 and 25,600.  Extraction splits the tree k - 1 = n/6 - 1 times, so
  these rows show how the cost of one split grows with the tree;
- one row of 50 random subcubic terminal trees over Z/3 on 20-200 vertices
  (`util.random_subcubic_tree`, seed 0), each at its own k.

It also times `frame.frame_pack_or_cover` on sparse directed graphs over
Z/3 with n = 3,200 and 12,800 vertices: a random spanning tree plus distinct
random pairs up to m = 1.3n edges, each edge oriented at random, and 30% of
the vertices terminals (all drawn from `random.Random(n)`), at k = 3, where
the frame packs, and at k = 1,000, where it covers.  Each move runs a
first-hit path search, so these rows show the cost of starting a search on a
large graph, and the doubling twice over shows how the frame grows with n.

Each packing is checked to be k disjoint zero-weight paths, and each cover
to have passed its checks, so a wrong result fails even an untimed run.  The
file name matches no `test_*.py` pattern, so the Tier-1 run does not collect
it.  Run from the root of a checkout:

    PYTHONPATH=src python -m pytest tests/bench_frame.py --benchmark-json BENCH_frame.json
"""

from __future__ import annotations

import random

import pytest

from gammapath.frame import extract_zero_paths, frame_pack_or_cover, largest_extractable
from gammapath.graphs import DIRECTED, LabelledGraph
from gammapath.harness import random_labelled_graph
from gammapath.packing import _verify_packing

from util import Z, random_subcubic_tree

CATERPILLAR_SIZES = (200, 400, 800, 1600, 3200, 6400, 25600)
SPARSE_SIZES = (3200, 12800)


def _caterpillar(n: int):
    """Spine 0..n-1, leaf n+i hanging off spine vertex i; the leaves are the terminals."""
    rng = random.Random(n)
    edges = [(i, i + 1, rng.randrange(3), i) for i in range(n - 1)]
    edges += [(i, n + i, rng.randrange(3), i) for i in range(n)]
    return LabelledGraph.build(Z(3), DIRECTED, edges, range(n, 2 * n)), set(range(2 * n - 1))


def _random_trees():
    """Random subcubic trees whose terminals are exactly their leaves, as the frame's are."""
    rng = random.Random(0)
    out = []
    while len(out) < 50:
        graph, tree = random_subcubic_tree(rng, Z(3), rng.randint(20, 200))
        leaves = {v for v in graph.vertices if len(graph._steps[v]) == 1}
        if graph.terminals == leaves:
            out.append((graph, tree, largest_extractable(graph, len(leaves))))
    return out


def _frame_cases():
    """Random directed graphs over Z/3 on at most 14 vertices, each with its k."""
    rng = random.Random(0)
    return [(random_labelled_graph(rng, Z(3), DIRECTED, n_max=14), 1 + i % 3) for i in range(100)]


def _sparse_graph(n: int):
    """A random spanning tree on 0..n-1 plus distinct random pairs up to 1.3n edges over Z/3,
    each edge oriented at random; 30% of the vertices are terminals."""
    rng = random.Random(n)
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    while len(pairs) < 13 * n // 10:
        u, v = sorted(rng.sample(range(n), 2))
        pairs.add((u, v))
    edges = [(u, v, rng.randrange(3), rng.choice((u, v))) for u, v in sorted(pairs)]
    terminals = rng.sample(range(n), 3 * n // 10)
    return LabelledGraph.build(Z(3), DIRECTED, edges, terminals, extra_vertices=range(n))


def _check(graph, paths, k) -> None:
    assert len(paths) == k
    _verify_packing(paths)
    for p in paths:
        p.validate(graph)
        assert p.weight == graph.group.zero()


def test_frame_random_graphs(benchmark):
    cases = _frame_cases()
    results = benchmark.pedantic(lambda: [frame_pack_or_cover(g, k) for g, k in cases], rounds=3)
    kinds = [r.outcome.kind for r in results]
    benchmark.extra_info.update(
        graphs=len(cases),
        packings=kinds.count("packing"),
        covers=kinds.count("cover"),
        moves=sum(len(r.audit) for r in results),
    )
    for (graph, k), result in zip(cases, results):
        if result.outcome.kind == "packing":
            _check(graph, result.outcome.paths, k)
        else:
            assert result.checks["bound_ok"] and result.checks["verified_empty"]


@pytest.mark.parametrize("n", CATERPILLAR_SIZES)
def test_extract_caterpillar(benchmark, n):
    graph, tree = _caterpillar(n)
    k = largest_extractable(graph, n)
    benchmark.extra_info.update(leaves=n, k=k)
    paths = benchmark.pedantic(extract_zero_paths, args=(graph, tree, k), rounds=3)
    _check(graph, paths, k)


def test_extract_random_trees(benchmark):
    cases = _random_trees()
    benchmark.extra_info.update(
        trees=len(cases),
        vertices=sum(len(g.vertices) for g, _, _ in cases),
        paths=sum(k for _, _, k in cases),
    )
    results = benchmark.pedantic(lambda: [extract_zero_paths(*case) for case in cases], rounds=3)
    for (graph, _, k), paths in zip(cases, results):
        _check(graph, paths, k)


@pytest.mark.parametrize("k", (3, 1000))
@pytest.mark.parametrize("n", SPARSE_SIZES)
def test_frame_sparse_graph(benchmark, n, k):
    graph = _sparse_graph(n)
    result = benchmark.pedantic(frame_pack_or_cover, args=(graph, k), rounds=3)
    benchmark.extra_info.update(
        vertices=len(graph.vertices), edges=len(graph.edges), terminals=len(graph.terminals),
        k=k, outcome=result.outcome.kind, moves=len(result.audit),
    )
    if result.outcome.kind == "packing":
        _check(graph, result.outcome.paths, k)
    else:
        assert result.checks["bound_ok"] and result.checks["verified_empty"]
