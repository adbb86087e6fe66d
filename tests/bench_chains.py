"""Layer benchmark: the chain subset-sum DP, `chains.reachable_mask` and
`chains.multiset_masks`.

Times two runs of one DP per delta vector over Z/p, each reported per vector:

- all 46,656 ordered vectors of p - 1 = 6 nonzero deltas at p = 7, what
  verify-suite's `chain-exhaustive` check ran before the multiset walk;
- all 92,378 multisets of p - 1 = 10 nonzero deltas at p = 11
  (`itertools.combinations_with_replacement`).  The reachable set of an
  abelian chain depends only on the multiset of its deltas, so this is the
  exhaustive p = 11 case; it is timed here and is not part of the suite.

and two runs of the multiset walk, which shares each prefix of the sorted
delta sequences, reported per multiset:

- the 462 multisets of six nonzero deltas at p = 7, the exhaustive part of
  `chain-exhaustive` (923 DP steps);
- all 1,352,078 multisets of twelve nonzero deltas at p = 13 (2,704,155
  steps).

Every vector and multiset must reach every weight (Cauchy-Davenport), so a
wrong DP fails even an untimed run.  The file name matches no `test_*.py` pattern, so the
Tier-1 run does not collect it.  Run from the root of a checkout:

    PYTHONPATH=src python -m pytest tests/bench_chains.py --benchmark-json BENCH_chains.json
"""

from __future__ import annotations

import itertools

import pytest

from gammapath.chains import multiset_masks, reachable_mask

from util import Z

CASES = {
    "p7_ordered": (7, lambda p: itertools.product(range(1, p), repeat=p - 1), 46_656),
    "p11_multisets": (11, lambda p: itertools.combinations_with_replacement(range(1, p), p - 1), 92_378),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_reachable_mask_reaches_every_weight(benchmark, case):
    p, vectors, count = CASES[case]
    group, full = Z(p), (1 << p) - 1
    deltas = list(vectors(p))
    assert len(deltas) == count

    def run() -> int:
        return sum(reachable_mask(group, 0, d) == full for d in deltas)

    assert benchmark.pedantic(run, rounds=3) == count
    benchmark.extra_info.update(p=p, vectors=count)
    # --benchmark-disable runs the test once and keeps no stats
    if benchmark.stats is not None:
        benchmark.extra_info["us_per_vector"] = round(benchmark.stats.stats.median / count * 1e6, 2)


TREES = {"p7_tree": (7, 462), "p13_tree": (13, 1_352_078)}


@pytest.mark.parametrize("case", sorted(TREES))
def test_multiset_walk_reaches_every_weight(benchmark, case):
    p, count = TREES[case]
    group, full = Z(p), (1 << p) - 1

    def run() -> tuple[int, int]:
        leaves = reached = 0
        for _, mask in multiset_masks(group, range(1, p), p - 1):
            leaves += 1
            reached += mask == full
        return leaves, reached

    assert benchmark.pedantic(run, rounds=3) == (count, count)
    benchmark.extra_info.update(p=p, multisets=count)
    if benchmark.stats is not None:
        benchmark.extra_info["us_per_multiset"] = round(benchmark.stats.stats.median / count * 1e6, 2)
