from __future__ import annotations

import gc
import json
import math
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammapath import groups
from gammapath.errors import GroupMismatchError, InternalInvariantError, UsageError
from gammapath.graphs import UNDIRECTED, LabelledGraph, enumerate_terminal_paths
from gammapath.groups import (
    CayleyGroup,
    CyclicProduct,
    INFINITE,
    IntegerGroup,
    abelian_types,
    cyclic_subgroup,
    element_order,
    elements_of_order_at_most_2,
    find_bad_pair,
    find_halving,
    group_from_json,
    has_weight_ep,
    has_zero_path_ep,
    iter_abelian_groups,
    subgroup_contains,
    sumset,
)

from util import INTS, Q8_NAMES, Z, make_q8, make_s3


def test_z4_addition():
    g = Z(4)
    assert g.element(3) + g.element(3) == g.element(2)


def test_inverse_axiom_assorted():
    for spec in (Z(4), Z(2, 2), Z(9), make_s3(), INTS):
        sample = spec.elements()[:8] if spec.is_finite else [spec.element(n) for n in (-3, 0, 5)]
        for e in sample:
            assert e + (-e) == spec.zero()


def test_q8_table_lookup():
    q8 = make_q8()
    i, j, k = (q8.element(Q8_NAMES.index(x)) for x in "ijk")
    assert i + j == k
    assert j + i == -k
    assert not q8.is_abelian


def test_mixed_group_operands_rejected():
    with pytest.raises(GroupMismatchError):
        Z(4).element(1) + Z(5).element(1)


def test_cayley_axioms_rejected():
    with pytest.raises(ValueError):
        CayleyGroup([[0, 1], [1, 1]])  # 1 has no inverse
    with pytest.raises(ValueError):
        CayleyGroup([[1, 0], [0, 1]], identity=0)  # identity does not fix


def test_element_order():
    assert element_order(Z(4).element(2)) == 2
    assert element_order(Z(9).element(3)) == 3
    assert element_order(INTS.element(5)) == INFINITE
    assert element_order(INTS.element(0)) == 1


def test_element_order_divides_group_order():
    for group in iter_abelian_groups(32):
        n = group.order
        for e in group.elements():
            assert n % element_order(e) == 0
    for group in (Z(64), Z(8, 8), make_s3(), make_q8()):
        n = group.order
        for e in group.elements():
            assert n % element_order(e) == 0


def test_cyclic_subgroup():
    g = Z(4)
    assert cyclic_subgroup(g.element(2)) == {g.element(0), g.element(2)}
    assert not subgroup_contains(g.element(2), g.element(1))
    h = Z(9)
    assert cyclic_subgroup(h.element(6)) == {h.element(0), h.element(3), h.element(6)}
    assert subgroup_contains(h.element(6), h.element(3))
    assert cyclic_subgroup(g.zero()) == {g.zero()}
    with pytest.raises(ValueError):
        cyclic_subgroup(INTS.element(2))


def _walked_subgroup(group, g: int) -> int:
    """The cyclic subgroup of value g as a mask, from the group's own _add."""
    mask, acc = 1 << group._zero, g
    while not mask >> acc & 1:
        mask |= 1 << acc
        acc = group._add(acc, g)
    return mask


def test_memoised_cyclic_subgroups_match_a_fresh_walk():
    for group in [*iter_abelian_groups(32), make_s3()]:
        for g in range(group.order):
            assert group.cyclic(g) == _walked_subgroup(group, g)
            assert group.cyclic(g) == _walked_subgroup(group, g)  # now read from the memo
        assert group._subgroups.keys() == set(range(group.order))


def test_cyclic_memo_belongs_to_one_group_instance():
    first, second = Z(4), Z(4)
    assert first == second
    first.cyclic(1)
    assert first._subgroups == {1: 0b1111}
    assert second._subgroups == {}


def test_element_order_walks_one_subgroup():
    group = Z(10007)
    assert element_order(group.element(5)) == 10007
    assert list(group._subgroups) == [5]


def _count_coset_tests(monkeypatch, group) -> list:
    """The g1 of each coset_order_above_two call on this instance, as they happen."""
    calls = []
    test = group.coset_order_above_two
    monkeypatch.setattr(group, "coset_order_above_two", lambda g1, sub: calls.append(g1) or test(g1, sub))
    return calls


def test_find_bad_pair_searches_once_per_group_instance(monkeypatch):
    first, second, prime = CyclicProduct((8,)), CyclicProduct((8,)), CyclicProduct((5,))
    assert first == second
    calls = [_count_coset_tests(monkeypatch, g) for g in (first, second, prime)]
    pair = find_bad_pair(first)
    searched = len(calls[0])
    assert pair is not None and searched > 0
    assert find_bad_pair(first) == pair and len(calls[0]) == searched
    # an equal instance keeps its own memo, so it searches for itself
    assert not calls[1]
    assert find_bad_pair(second) == pair and len(calls[1]) == searched
    # an answer of None is remembered too
    assert find_bad_pair(prime) is None
    searched = len(calls[2])
    assert searched > 0 and find_bad_pair(prime) is None and len(calls[2]) == searched


@pytest.mark.parametrize(
    "make",
    [lambda: CyclicProduct((8,)), lambda: CayleyGroup([[(i + j) % 8 for j in range(8)] for i in range(8)])],
    ids=["cyclic", "cayley"],
)
def test_groups_are_freed_without_the_cycle_collector(make):
    """A group holds no element of itself, so once a graph over it, its paths, its bad pair and
    a mask's elements are dropped, reference counting alone frees it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        group = make()
        ref = weakref.ref(group)
        edges = [("a", "b", 1), ("b", "c", 2), ("a", "c", 3)]
        graph = LabelledGraph.build(group, UNDIRECTED, edges, terminals=["a", "c"])
        paths = enumerate_terminal_paths(graph)
        pair = find_bad_pair(group)
        elems = group.from_mask(0b1011)
        assert paths and pair is not None and len(elems) == 3
        del group, graph, paths, pair, elems
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_groups_compare_and_hash_by_their_key():
    z4_table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    assert CyclicProduct((2, 4)) == CyclicProduct([2, 4]) and hash(CyclicProduct((2, 4))) == hash(Z(2, 4))
    assert CyclicProduct((4, 2)) != CyclicProduct((2, 4))
    assert CayleyGroup(z4_table) == CayleyGroup(z4_table, name="other") != CyclicProduct((4,))
    assert hash(CayleyGroup(z4_table)) == hash(CayleyGroup(z4_table, name="other"))
    assert IntegerGroup() == INTS and hash(IntegerGroup()) == hash(INTS)
    assert INTS != CyclicProduct(()) and INTS != "integers"
    assert len({Z(4), CyclicProduct((4,)), CayleyGroup(z4_table), INTS, IntegerGroup()}) == 3


def test_elements_of_order_at_most_2():
    g = Z(4)
    assert elements_of_order_at_most_2(g) == {g.element(0), g.element(2)}
    v = Z(2, 2)
    assert elements_of_order_at_most_2(v) == set(v.elements())
    assert elements_of_order_at_most_2(Z(5)) == {Z(5).zero()}
    assert elements_of_order_at_most_2(INTS) == {INTS.zero()}


def test_invariant_factors():
    assert Z(4).invariant_factors() == (4,)
    assert Z(2, 4).invariant_factors() == (2, 4)
    assert Z(4, 2).invariant_factors() == (2, 4)
    assert Z(2, 3).invariant_factors() == (6,)
    assert Z(6, 4).invariant_factors() == (2, 12)
    assert CyclicProduct(()).invariant_factors() == ()


def test_cayley_invariant_factors_match_cyclic():
    # Z/6 as an explicit table must classify identically to the product form.
    table = [[(a + b) % 6 for b in range(6)] for a in range(6)]
    g = CayleyGroup(table)
    assert g.invariant_factors() == (6,)
    assert g.is_abelian
    # every abelian group of order <= 16, with its table rows in a shuffled order
    for product in iter_abelian_groups(16):
        n = product.order
        perm = [(7 * i + 3) % n if n % 7 else i for i in range(n)]
        elems = product.elements()
        table = [[perm[(elems[perm.index(a)] + elems[perm.index(b)]).value] for b in range(n)] for a in range(n)]
        assert CayleyGroup(table, identity=perm[0]).invariant_factors() == product.invariant_factors()


def test_cayley_classification_matches_product_form():
    for n in (4, 5, 6, 8):
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
        as_table = CayleyGroup(table)
        as_product = Z(n)
        assert has_zero_path_ep(as_table) == has_zero_path_ep(as_product)
        for ell in range(n):
            assert has_weight_ep(as_table, as_table.element(ell)) == has_weight_ep(
                as_product, as_product.element(ell)
            )


def test_zero_path_classification():
    assert has_zero_path_ep(Z(4)) is True
    assert has_zero_path_ep(Z(6)) is False
    assert has_zero_path_ep(Z(2, 2, 2)) is True
    assert has_zero_path_ep(Z(5)) is True
    assert has_zero_path_ep(Z(8)) is False
    assert has_zero_path_ep(IntegerGroup()) is False
    with pytest.raises(ValueError):
        has_zero_path_ep(make_s3())


def test_weight_classification():
    z4 = Z(4)
    assert has_weight_ep(z4, z4.element(2)) is True
    assert has_weight_ep(z4, z4.element(1)) is False
    z8 = Z(8)
    assert has_weight_ep(z8, z8.element(4)) is False
    z5 = Z(5)
    assert has_weight_ep(z5, z5.element(3)) is True
    z22 = Z(2, 2)
    assert has_weight_ep(z22, z22.zero()) is True
    assert has_weight_ep(z22, z22.element((1, 0))) is False
    assert has_weight_ep(IntegerGroup(), INTS.element(2)) is False


def test_weight_classification_double_computation_agrees_up_to_32():
    for group in iter_abelian_groups(32):
        for ell in group.elements():
            has_weight_ep(group, ell)  # raises InternalInvariantError on mismatch
        assert has_zero_path_ep(group) == _quoted_zero_characterization(group)


def _quoted_zero_characterization(group) -> bool:
    factors = group.invariant_factors()
    if factors and all(f == 2 for f in factors):
        return True
    if factors == ():
        return True
    if len(factors) == 1:
        m = factors[0]
        return m == 4 or _prime(m)
    return False


def _prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, n))


def test_find_halving():
    z9 = Z(9)
    assert find_halving(z9, z9.element(3)) == z9.element(6)
    z4 = Z(4)
    assert find_halving(z4, z4.element(1)) is None
    assert find_halving(z4, z4.zero()) == z4.zero()


def test_find_halving_exists_for_odd_order():
    for group in iter_abelian_groups(27):
        if group.order % 2 == 1:
            for ell in group.elements():
                assert find_halving(group, ell) is not None


def test_find_bad_pair():
    z8 = Z(8)
    pair = find_bad_pair(z8)
    assert pair == (z8.element(1), z8.element(4))
    g1, g2 = pair
    # re-verify the quotient condition independently
    sub = cyclic_subgroup(g2)
    assert g1 not in sub and (g1 + g1) not in sub

    z33 = Z(3, 3)
    g1, g2 = find_bad_pair(z33)
    assert element_order(g1) == 3
    assert g2 not in cyclic_subgroup(g1)

    assert find_bad_pair(Z(4)) is None


def test_find_bad_pair_matches_classification_up_to_32():
    for group in iter_abelian_groups(32):
        assert (find_bad_pair(group) is None) == has_zero_path_ep(group)


def test_sumset():
    z5 = Z(5)
    xs = {z5.element(0), z5.element(1)}
    out = sumset(xs, xs)
    assert out == {z5.element(0), z5.element(1), z5.element(2)}
    z3 = Z(3)
    assert sumset({z3.element(0), z3.element(1)}, {z3.element(0), z3.element(2)}) == set(
        z3.elements()
    )
    ys = {z5.element(2), z5.element(4)}
    assert sumset({z5.zero()}, ys) == ys


@pytest.mark.parametrize("p", [3, 5, 7])
def test_sumset_lower_bound_exhaustive(p):
    group = Z(p)
    elems = group.elements()
    import itertools

    subsets = []
    for r in range(1, p + 1):
        subsets.extend(frozenset(c) for c in itertools.combinations(elems, r))
    for xs in subsets:
        for ys in subsets:
            out = sumset(xs, ys)  # raises InternalInvariantError if the bound fails
            assert len(out) >= min(len(xs) + len(ys) - 1, p)


def test_abelian_types_counts():
    assert abelian_types(1) == [()]
    assert abelian_types(8) == [(2, 2, 2), (2, 4), (8,)]
    assert abelian_types(12) == [(2, 6), (12,)]


def test_group_json_round_trip():
    for spec in (Z(4), Z(2, 4), INTS, make_s3()):
        again = group_from_json(spec.to_json())
        assert again == spec
    e = Z(2, 4).element((1, 3))
    assert Z(2, 4).element(e.to_json()) == e
    assert INTS.element("12") == INTS.element(12)


def test_equal_group_json_gives_the_same_group():
    z24 = group_from_json({"type": "cyclic_product", "orders": [2, 4]})
    assert group_from_json({"orders": [2, 4], "type": "cyclic_product"}) is z24
    s3 = make_s3().to_json()
    assert group_from_json(dict(s3)) is group_from_json(json.loads(json.dumps(s3)))
    assert group_from_json({"type": "integers"}) is group_from_json({"type": "integers"})
    # JSON that differs gives its own group
    assert group_from_json({"type": "cyclic_product", "orders": [4, 2]}) is not z24


@pytest.mark.parametrize(
    "data",
    [{"type": "cyclic_product", "orders": [1]}, {"type": "cayley", "table": [[0, 1], [1, 1]]}, {"type": "cyclic_product"}],
    ids=["order-one", "no-inverse", "no-orders"],
)
def test_a_malformed_group_raises_on_every_call(data):
    messages = []
    for _ in range(3):
        with pytest.raises(UsageError) as raised:
            group_from_json(data)
        messages.append(str(raised.value))
    assert len(set(messages)) == 1


_S2 = [[0, 1], [1, 0]]


@pytest.mark.parametrize(
    "data, key",
    [
        ({"type": "cyclic_product", "orders": "4"}, "orders"),
        ({"type": "cyclic_product", "orders": "35"}, "orders"),
        ({"type": "cyclic_product", "orders": [2.9]}, "orders"),
        ({"type": "cyclic_product", "orders": ["5"]}, "orders"),
        ({"type": "cyclic_product", "orders": [True, 3]}, "orders"),
        ({"type": "cayley", "table": ["01", "10"]}, "table"),
        ({"type": "cayley", "table": [[0.0, 1], [1, 0]]}, "table"),
        ({"type": "cayley", "table": [[0, 1], [True, 0]]}, "table"),
        ({"type": "cayley", "table": _S2, "identity": "0"}, "identity"),
        ({"type": "cayley", "table": _S2, "identity": False}, "identity"),
    ],
    ids=["string", "digit-string", "float", "string-entry", "bool-entry", "string-rows", "float-entry",
         "bool-table-entry", "string-identity", "bool-identity"],
)
def test_group_json_takes_ints_where_it_needs_ints(data, key):
    shape = {"orders": "a list of ints", "table": "a list of lists of ints", "identity": "an int"}[key]
    with pytest.raises(UsageError, match=f"^bad group JSON: '{key}' must be {shape}$"):
        group_from_json(data)


def test_the_group_memo_stays_bounded():
    for n in range(2, 3 * groups._GROUP_MEMO_SIZE):
        assert group_from_json({"type": "cyclic_product", "orders": [n]}).order == n
    assert len(groups._groups_by_json) <= groups._GROUP_MEMO_SIZE


def test_a_graph_from_another_groups_elements_is_rejected():
    z4 = group_from_json({"type": "cyclic_product", "orders": [4]})
    z5 = group_from_json({"type": "cyclic_product", "orders": [5]})
    with pytest.raises(GroupMismatchError):
        LabelledGraph(z5, UNDIRECTED, ["a", "b"], [(0, "a", "b", z4.element(1))])


@settings(max_examples=60, deadline=None)
@given(
    orders=st.lists(st.integers(min_value=2, max_value=6), min_size=1, max_size=3),
    data=st.data(),
)
def test_group_axioms_random(orders, data):
    group = CyclicProduct(orders)
    elems = group.elements()
    a = data.draw(st.sampled_from(elems))
    b = data.draw(st.sampled_from(elems))
    c = data.draw(st.sampled_from(elems))
    assert (a + b) + c == a + (b + c)
    assert a + group.zero() == a
    assert a + (-a) == group.zero()
    assert a + b == b + a
