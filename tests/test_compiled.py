"""Int element values and bitmask sets against coordinate-tuple and GroupElem oracles."""

from __future__ import annotations

import functools
import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammapath import chains, groups
from gammapath.chains import CycleChain, reachable_weights, reroute_to_weight
from gammapath.errors import GroupMismatchError, InternalInvariantError
from gammapath.groups import (
    CayleyGroup,
    CyclicProduct,
    FiniteGroup,
    GroupElem,
    _rotate,
    find_bad_pair,
    iter_abelian_groups,
    sumset,
)

from util import (
    INTS,
    Z,
    coordinate_tuples,
    make_q8,
    make_s3,
    oracle_find_bad_pair,
    oracle_reachable_weights,
    oracle_reroute_subset,
    tuple_add,
    tuple_neg,
)

ORACLE_GROUPS = [*iter_abelian_groups(32), make_s3(), make_q8()]
SMALL_GROUPS = [Z(7), Z(2, 4), make_s3()]


def _written_forms(group):
    """Each value's written form (coordinate tuple or table index), with add and neg on those forms."""
    if isinstance(group, CyclicProduct):
        return coordinate_tuples(group), functools.partial(tuple_add, group), functools.partial(tuple_neg, group)
    table = group.table
    return list(range(group.order)), lambda a, b: table[a][b], lambda a: table[a].index(group.identity)


@pytest.mark.parametrize("group", ORACLE_GROUPS, ids=lambda g: g.name)
def test_compiled_arithmetic_matches_group_elements(group):
    written, add, neg = _written_forms(group)
    elems = group.elements()
    assert [e.value for e in elems] == list(range(group.order))
    assert sorted(elems, key=group.elem_sort_key) == elems
    assert group.element(written[group.zero().value]) == group.zero()
    for i, (a, w) in enumerate(zip(elems, written)):
        assert type(a.value) is int
        assert group.element(w) == a
        assert a.to_json() == (list(w) if isinstance(w, tuple) else w)
        assert group.element(a.to_json()) == a
        assert repr(a) == f"<{w!r} in {group.name}>"
        assert (-a).value == group._neg(i)
        assert written[group._neg(i)] == neg(w)
        for j, (b, v) in enumerate(zip(elems, written)):
            total = a + b
            assert total.value == group._add(i, j)
            assert written[total.value] == add(w, v)


def test_written_forms_are_pinned():
    assert repr(Z(2, 2).element((1, 0))) == "<(1, 0) in Z/2xZ/2>"
    assert Z(3, 4).element((2, 1)).value == 9 and Z(3, 4).element((-1, 5)).value == 9
    trivial = CyclicProduct(())
    assert trivial.elements() == [trivial.zero()] == [trivial.element(())]
    assert trivial.zero().value == 0 and trivial.zero().to_json() == []
    assert repr(trivial.zero()) == "<() in trivial>"
    assert repr(make_s3().zero()) == f"<{make_s3().identity} in S3>"
    for value in (0, 7, -7, 10**30):
        e = INTS.element(value)
        assert type(e.value) is int and e.to_json() == str(value) and repr(e) == f"<{value} in Z>"
    message = "element <(1,) in Z/4> does not belong to Z/2xZ/2"
    with pytest.raises(GroupMismatchError, match=re.escape(message)):
        Z(2, 2).element(Z(4).element(1))


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


def _generic_z(n: int) -> FiniteGroup:
    """Z/n without the rotation fast path: every sum goes through `_add`."""
    group = FiniteGroup(n, 0, lambda i, j: (i + j) % n, lambda i: -i % n)
    group.name = f"generic Z/{n}"
    return group


@pytest.mark.parametrize("n", range(2, 14))
def test_rotating_step_matches_the_generic_sumset(n):
    # composite n has prime None, so only prime n checks the Cauchy-Davenport bound
    group, generic = Z(n), _generic_z(n)
    assert group._rotates and not generic._rotates and group.prime == generic.prime
    for mask in range(1 << n):
        for d in range(n):
            expected = generic.sumset(1 | 1 << d, mask)
            assert mask | _rotate(mask, d, n) == expected
            assert group.optional_sum(d, mask) == generic.optional_sum(d, mask) == expected
            assert group.sumset(1 | 1 << d, mask) == expected
            assert group.translate(d, mask) == generic.translate(d, mask)
    # the DP's own loop, zero deltas included
    for deltas in itertools.product(range(n), repeat=3):
        assert chains._suffix_sums(group, deltas) == chains._suffix_sums(generic, deltas)


def _lossy(rotate):
    def dropped(*args):
        out = rotate(*args)
        return out & (out - 1)  # drops the lowest element

    return dropped


def test_dropped_element_in_the_int_dp_is_caught(monkeypatch):
    # Z/7 rotates: its DP steps are `optional_sum`'s rotate-or
    monkeypatch.setattr(groups, "_rotate", _lossy(groups._rotate))
    chain = CycleChain.abstract(Z(7), 0, [1, 2, 3])
    with pytest.raises(InternalInvariantError):
        reachable_weights(chain)


def test_dropped_element_in_the_table_dp_is_caught(monkeypatch):
    # a prime-order Cayley table does not rotate: its DP steps go through `translate`
    monkeypatch.setattr(FiniteGroup, "translate", _lossy(FiniteGroup.translate))
    group = CayleyGroup([[(i + j) % 7 for j in range(7)] for i in range(7)])
    assert group.prime == 7 and not group._rotates
    chain = CycleChain.abstract(group, 0, [1, 2, 3])
    with pytest.raises(InternalInvariantError):
        reachable_weights(chain)


@pytest.mark.parametrize("group", [Z(7), Z(2, 4), make_s3(), INTS], ids=lambda g: g.name)
def test_zero_is_one_cached_element(group):
    """The zero is made on each call, equal each time to the element of the zero value; the
    group keeps no element of itself."""
    assert group.zero() == group.zero() == GroupElem(group, group._zero)
    assert not group.zero()
    assert not any(isinstance(v, GroupElem) for v in vars(group).values())


def test_from_mask_reuses_cached_elements_equal_to_fresh_ones():
    """from_mask builds elements equal to fresh ones, and the group keeps none of them."""
    for group in (Z(7), Z(2, 4), make_s3()):
        mask = 0b101101
        out = group.from_mask(mask)
        assert out == frozenset(GroupElem(group, i) for i in range(group.order) if mask >> i & 1)
        assert group.from_mask(mask) == out
        assert (group.zero() in out) == bool(mask >> group._zero & 1)
    big = Z(10007)
    assert big.from_mask(1 << 10006 | 1 << 5000) == {big.element(10006), big.element(5000)}
    assert not any(isinstance(v, GroupElem) for v in vars(big).values())


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
