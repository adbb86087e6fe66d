"""Layer benchmark: relabelling a graph, per edge, against building it.

Regenerates the instances of two `verify-suite --seed 7` checks, from the
seeds and in the order the checks draw them:

- `normalization`: 200 `harness.random_three_connected` graphs over Z/2,
  Z/2xZ/2 and Z/4 (n = 4..10), each with the shifts `normalize_to_zero`
  finds for it;
- `reduction`: 200 `harness.random_labelled_graph` graphs over Z/9 and Z/4,
  each with its target weight and halving element.

Times, per edge over the whole instance list: `apply_shifts` on the
normalization graphs, `reduce_weight_to_zero` on the reduction graphs,
`with_labels` (each label replaced by itself) on the normalization graphs,
and `LabelledGraph.build` of the normalization graphs from their edge lists,
the reference row that relabelling does not touch.

The file name matches no `test_*.py` pattern, so the Tier-1 run does not
collect it.  Run from the root of a checkout:

    PYTHONPATH=src python -m pytest tests/bench_graphs.py --benchmark-json BENCH_graphs.json
"""

from __future__ import annotations

import functools
import random

from gammapath.graphs import UNDIRECTED, LabelledGraph, apply_shifts, normalize_to_zero
from gammapath.groups import find_halving
from gammapath.harness import random_labelled_graph, random_three_connected
from gammapath.packing import reduce_weight_to_zero

from util import Z

SEED = 7
INSTANCES = 200
# fixed rounds keep BENCH_graphs.json small; each round relabels every instance once
ROUNDS = {"rounds": 20, "warmup_rounds": 1}


@functools.lru_cache(maxsize=None)
def _normalization() -> list:
    """(graph, shifts) of each normalization instance, drawn as `check_normalization` draws them."""
    rng = random.Random(SEED * 1009 + 7)
    groups = [Z(2), Z(2, 2), Z(4)]
    out = []
    for i in range(INSTANCES):
        graph, _ = random_three_connected(rng, groups[i % 3], rng.randint(4, 10))
        shifts, _ = normalize_to_zero(graph)
        out.append((graph, shifts))
    return out


@functools.lru_cache(maxsize=None)
def _reduction() -> list:
    """(graph, ell, g) of each reduction instance, drawn as `check_reduction` draws them."""
    rng = random.Random(SEED * 1009 + 8)
    cases = [(Z(9), list(range(9))), (Z(4), [0, 2])]
    out = []
    for i in range(INSTANCES):
        group, targets = cases[i % 2]
        graph = random_labelled_graph(rng, group, UNDIRECTED, n_max=10)
        ell = group.element(rng.choice(targets))
        out.append((graph, ell, find_halving(group, ell)))
    return out


def _per_edge(benchmark, graphs) -> None:
    edges = sum(len(g.edges) for g in graphs)
    benchmark.extra_info.update(instances=len(graphs), edges=edges)
    # --benchmark-disable runs the test once and keeps no stats
    if benchmark.stats is not None:
        benchmark.extra_info["us_per_edge"] = round(benchmark.stats.stats.median / edges * 1e6, 3)


def test_apply_shifts(benchmark):
    cases = _normalization()

    def run():
        return [apply_shifts(graph, shifts) for graph, shifts in cases]

    out = benchmark.pedantic(run, **ROUNDS)
    assert all(not any(e.label for e in g.edges) for g in out)
    _per_edge(benchmark, [graph for graph, _ in cases])


def test_reduce_weight_to_zero(benchmark):
    cases = _reduction()

    def run():
        return [reduce_weight_to_zero(graph, ell, g) for graph, ell, g in cases]

    out = benchmark.pedantic(run, **ROUNDS)
    assert [len(g.edges) for g in out] == [len(graph.edges) for graph, _, _ in cases]
    _per_edge(benchmark, [graph for graph, _, _ in cases])


def test_with_labels(benchmark):
    graphs = [graph for graph, _ in _normalization()]

    def run():
        return [graph.with_labels(lambda e: e.label) for graph in graphs]

    out = benchmark.pedantic(run, **ROUNDS)
    assert [g.edges for g in out] == [graph.edges for graph in graphs]
    _per_edge(benchmark, graphs)


def test_build(benchmark):
    graphs = [graph for graph, _ in _normalization()]
    specs = [(g.group, [(e.u, e.v, e.label) for e in g.edges], g.vertices) for g in graphs]

    def run():
        return [LabelledGraph.build(group, UNDIRECTED, edges, (), extra_vertices=vertices) for group, edges, vertices in specs]

    out = benchmark.pedantic(run, **ROUNDS)
    assert [g.edges for g in out] == [graph.edges for graph in graphs]
    _per_edge(benchmark, graphs)
