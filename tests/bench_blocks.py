"""Layer benchmark: block decomposition and the 3-connectivity test.

Times `three_blocks` and `LabelledGraph.is_three_connected` on
`harness.random_three_connected` graphs over Z/3 (K4 grown by degree-3
attachments) at 10, 14, 18, 24, 60 and 100 vertices.  Those graphs are
3-connected, so their one block has no bridges and the block-weight search
never runs; `three_blocks` is therefore also timed on sparse random graphs
over Z/3 (`util.sparse_graph`: a spanning tree plus distinct pairs up to 2n
edges), whose blocks are mostly joined through bridges, at 14, 18, 22, 24,
140 and 300 vertices and at 500, the largest multiple of 100 that took
under 1 s on the reference machine in every run (600 took 0.85-1.03 s).
The benchmark's `blocks` shape, 12, 13 and 14 vertices with 2n edges over
Z/2 x Z/2 and Z/3, has rows of its own; their `extra_info` counts the
attachment pairs joined only by chords, whose weights need no search, and
the pairs that are searched.
The file name matches no `test_*.py` pattern, so the Tier-1 run does not
collect it.  Run from the root of a checkout:

    PYTHONPATH=src python -m pytest tests/bench_blocks.py --benchmark-json BENCH_blocks.json
"""

from __future__ import annotations

import random

import pytest

from gammapath.graphs import three_blocks
from gammapath.harness import random_three_connected

from util import Z, sparse_graph

SIZES = (10, 14, 18, 24, 60, 100)
SPARSE_SIZES = (14, 18, 22, 24, 140, 300, 500)
SHAPE_SIZES = (12, 13, 14)
# fixed rounds keep BENCH_blocks.json small
ROUNDS = {"rounds": 30, "warmup_rounds": 1}


def _graph(n: int):
    graph, _ = random_three_connected(random.Random(n), Z(3), n)
    return graph


@pytest.mark.parametrize("n", SIZES)
def test_three_blocks(benchmark, n):
    graph = _graph(n)
    benchmark.extra_info.update(vertices=n, edges=len(graph.edges))
    blocks = benchmark.pedantic(three_blocks, args=(graph,), **ROUNDS)
    assert [b.vertices for b in blocks] == [graph.vertices]


@pytest.mark.parametrize("n", SPARSE_SIZES)
def test_three_blocks_sparse(benchmark, n):
    graph = sparse_graph(random.Random(n), Z(3), n, 2 * n)
    blocks = benchmark.pedantic(three_blocks, args=(graph,), rounds=3)
    assert blocks
    benchmark.extra_info.update(
        vertices=n,
        edges=len(graph.edges),
        blocks=len(blocks),
        block_edges=sum(len(k.block_graph.edges) for k in blocks),
        # bridges with two attachments and interior vertices: the searches that
        # leave the block
        searched_bridges=sum(bool(b.vertices) and len(b.attachments) == 2 for k in blocks for b in k.bridges),
    )


def _pairs(blocks) -> tuple[int, int]:
    """(chord-only, searched) attachment pairs over the blocks, as the block weights see them."""
    searched_at: dict = {}
    for k, block in enumerate(blocks):
        for b in block.bridges:
            if len(b.attachments) == 2:
                key = (k, b.attachments)
                searched_at[key] = searched_at.get(key, False) or bool(b.vertices)
    searched = sum(searched_at.values())
    return len(searched_at) - searched, searched


@pytest.mark.parametrize("group", [Z(2, 2), Z(3)], ids=lambda g: g.name)
@pytest.mark.parametrize("n", SHAPE_SIZES)
def test_three_blocks_shape(benchmark, n, group):
    graph = sparse_graph(random.Random(n), group, n, 2 * n)
    blocks = benchmark.pedantic(three_blocks, args=(graph,), **ROUNDS)
    chord_only, searched = _pairs(blocks)
    benchmark.extra_info.update(
        vertices=n,
        edges=len(graph.edges),
        blocks=len(blocks),
        chord_only_pairs=chord_only,
        searched_pairs=searched,
    )


@pytest.mark.parametrize("n", SIZES)
def test_is_three_connected(benchmark, n):
    graph = _graph(n)
    benchmark.extra_info.update(vertices=n, edges=len(graph.edges))
    assert benchmark.pedantic(graph.is_three_connected, **ROUNDS)
