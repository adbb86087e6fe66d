"""The compiled (int-indexed, bitmask) group form against GroupElem oracles."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammapath.chains import CycleChain, reachable_weights, reroute_to_weight
from gammapath.errors import InternalInvariantError
from gammapath.groups import CompiledGroup, CyclicProduct, find_bad_pair, iter_abelian_groups, sumset

from util import (
    Z,
    make_q8,
    make_s3,
    oracle_find_bad_pair,
    oracle_reachable_weights,
    oracle_reroute_subset,
)

ORACLE_GROUPS = [*iter_abelian_groups(32), make_s3(), make_q8()]
SMALL_GROUPS = [Z(7), Z(2, 4), make_s3()]


@pytest.mark.parametrize("group", ORACLE_GROUPS, ids=lambda g: g.name)
def test_compiled_arithmetic_matches_group_elements(group):
    c = group.compiled()
    assert group.compiled() is c
    assert list(c.elems) == sorted(group.elements(), key=group.elem_sort_key)
    assert all(c.index[e] == i for i, e in enumerate(c.elems))
    assert c.elems[c.zero] == group.zero()
    for i, a in enumerate(c.elems):
        assert c.elems[c.neg(i)] == -a
        for j, b in enumerate(c.elems):
            assert c.elems[c.add(i, j)] == a + b


@pytest.mark.parametrize("group", ORACLE_GROUPS, ids=lambda g: g.name)
def test_find_bad_pair_matches_object_oracle(group):
    if not group.is_abelian:
        with pytest.raises(ValueError):
            find_bad_pair(group)
        return
    assert find_bad_pair(group) == oracle_find_bad_pair(group)


def _subset(data, group):
    elems = group.elements()
    picks = data.draw(st.sets(st.integers(min_value=0, max_value=len(elems) - 1)))
    return frozenset(elems[i] for i in picks)


@settings(max_examples=150, deadline=None)
@given(which=st.integers(min_value=0, max_value=len(SMALL_GROUPS) - 1), data=st.data())
def test_sumset_matches_double_loop(which, data):
    group = SMALL_GROUPS[which]
    xs, ys = _subset(data, group), _subset(data, group)
    assert sumset(xs, ys) == frozenset(x + y for x in xs for y in ys)


@settings(max_examples=150, deadline=None)
@given(which=st.integers(min_value=0, max_value=len(SMALL_GROUPS) - 1), data=st.data())
def test_chain_dp_matches_object_oracle(which, data):
    # S3 is nonabelian: the oracles sum core + d_i + d_j left to right
    group = SMALL_GROUPS[which]
    elems = group.elements()
    index = st.integers(min_value=0, max_value=len(elems) - 1)
    core = elems[data.draw(index)]
    deltas = [elems[i] for i in data.draw(st.lists(index, max_size=6))]
    target = elems[data.draw(index)]
    chain = CycleChain.abstract(group, core, deltas)
    assert reachable_weights(chain) == oracle_reachable_weights(chain)
    out = reroute_to_weight(chain, target)
    expected = oracle_reroute_subset(chain, target)
    assert (out.subset if out is not None else None) == expected


def test_dropped_element_in_the_int_dp_is_caught(monkeypatch):
    translate = CompiledGroup.translate

    def lossy(self, d, mask):
        out = translate(self, d, mask)
        return out & (out - 1)  # drops the lowest element

    monkeypatch.setattr(CompiledGroup, "translate", lossy)
    chain = CycleChain.abstract(Z(7), 0, [1, 2, 3])
    with pytest.raises(InternalInvariantError):
        reachable_weights(chain)


def test_large_groups_match_object_oracles():
    big = CyclicProduct((10007,))
    chain = CycleChain.abstract(big, 12, [1, 5000, 10006, 17, 3, 9999])
    reach = reachable_weights(chain)
    assert reach == oracle_reachable_weights(chain)
    for value in (12, 5013, 12 + 17 + 3, 0, 7):
        target = big.element(value)
        out = reroute_to_weight(chain, target)
        assert (out.subset if out is not None else None) == oracle_reroute_subset(chain, target)
        assert (out is not None) == (target in reach)
    grid = Z(100, 100)
    xs = {grid.element(v) for v in [(0, 0), (1, 99), (50, 50), (99, 3)]}
    ys = {grid.element(v) for v in [(0, 1), (99, 99), (7, 42)]}
    assert sumset(xs, ys) == frozenset(x + y for x in xs for y in ys)
