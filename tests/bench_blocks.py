"""Layer benchmark: block decomposition and the 3-connectivity test.

Times `three_blocks` and `LabelledGraph.is_three_connected` on
`harness.random_three_connected` graphs over Z/3 (K4 grown by degree-3
attachments) at 10, 14, 18 and 24 vertices.  The file name matches no
`test_*.py` pattern, so the Tier-1 run does not collect it.  Run from the
root of a checkout:

    PYTHONPATH=src python -m pytest tests/bench_blocks.py --benchmark-json BENCH_blocks.json
"""

from __future__ import annotations

import random

import pytest

from gammapath.graphs import three_blocks
from gammapath.harness import random_three_connected

from util import Z

SIZES = (10, 14, 18, 24)


def _graph(n: int):
    graph, _ = random_three_connected(random.Random(n), Z(3), n)
    return graph


@pytest.mark.parametrize("n", SIZES)
def test_three_blocks(benchmark, n):
    graph = _graph(n)
    benchmark.extra_info.update(vertices=n, edges=len(graph.edges))
    blocks = benchmark(three_blocks, graph)
    assert [b.vertices for b in blocks] == [graph.vertices]


@pytest.mark.parametrize("n", SIZES)
def test_is_three_connected(benchmark, n):
    graph = _graph(n)
    benchmark.extra_info.update(vertices=n, edges=len(graph.edges))
    assert benchmark(graph.is_three_connected)
