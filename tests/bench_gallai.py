"""Layer benchmark: `max_packing` against Gallai's formula on plain A-path families.

Twenty seeded all-zero graphs on 14-20 vertices (`util.plain_a_path_graph`),
each with a weight-0 family of at least 1,000 members, far past the
brute-force oracles.  On every row `max_packing` must find the nu that
Gallai's matching formula gives (`util.gallai_nu`).  Ten rows have four
terminals, where the greedy seed meets the bound at once; ten have six, where
nu = 3 and proving it takes the branch and bound up to seconds a row.  Each
row's family size, nu and solver time go into the benchmark's extra_info.
The fast rows of the same draw are Tier-1 tests in `test_packing.py`.

The file name matches no `test_*.py` pattern, so the Tier-1 run does not
collect it.  Run from the root of a checkout:

    PYTHONPATH=src python -m pytest tests/bench_gallai.py --benchmark-json BENCH_gallai.json
"""

from __future__ import annotations

import random
import time

from gammapath.packing import WEIGHT, MemberTable, PathFamilySpec, max_packing

from util import gallai_nu, plain_a_path_graph

ROWS = [(seed, 6) for seed in (30, *range(33, 42))] + [(seed, 4) for seed in range(42, 52)]


def _row(seed: int, terminals: int):
    """The first graph of the seed's draw whose family has at least 1,000 members, with its member table."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(14, 20)
        graph = plain_a_path_graph(rng, n, rng.randint(8 * n // 5, 2 * n), terminals)
        table = MemberTable(PathFamilySpec(WEIGHT, graph, weight=0))
        if len(table.rows) >= 1000:
            return graph, table


def test_max_packing_matches_gallai_on_large_plain_families(benchmark):
    rows = [_row(seed, terminals) for seed, terminals in ROWS]

    def solve() -> list[tuple[int, float]]:
        out = []
        for _, table in rows:
            start = time.process_time()
            nu = max_packing(table)[0]
            out.append((nu, time.process_time() - start))
        return out

    solved = benchmark.pedantic(solve, rounds=1)
    for (graph, table), (nu, _) in zip(rows, solved):
        assert len(table.rows) >= 1000
        assert nu == gallai_nu(graph)
    benchmark.extra_info["rows"] = [
        {"seed": seed, "terminals": terminals, "members": len(table.rows), "nu": nu, "cpu_s": round(cpu_s, 3)}
        for (seed, terminals), (_, table), (nu, cpu_s) in zip(ROWS, rows, solved)
    ]
