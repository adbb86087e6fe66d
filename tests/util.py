"""Shared helpers for the test suite: small concrete groups and naive oracles."""

from __future__ import annotations

import itertools

from gammapath.groups import CayleyGroup, CyclicProduct, IntegerGroup
from gammapath.harness import make_s3, naive_max_packing, naive_min_cover  # noqa: F401


def Z(*orders: int) -> CyclicProduct:
    return CyclicProduct(orders)


INTS = IntegerGroup()


_Q8_MUL = {
    ("e", "e"): (1, "e"), ("e", "i"): (1, "i"), ("e", "j"): (1, "j"), ("e", "k"): (1, "k"),
    ("i", "e"): (1, "i"), ("i", "i"): (-1, "e"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
    ("j", "e"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "e"), ("j", "k"): (1, "i"),
    ("k", "e"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "e"),
}

Q8_NAMES = ["e", "-e", "i", "-i", "j", "-j", "k", "-k"]


def make_q8() -> CayleyGroup:
    """Quaternion group of order 8 with elements ordered e,-e,i,-i,j,-j,k,-k."""

    def decode(name: str) -> tuple[int, str]:
        return (-1, name[1]) if name.startswith("-") else (1, name)

    def encode(sign: int, letter: str) -> str:
        return letter if sign == 1 else "-" + letter

    idx = {name: n for n, name in enumerate(Q8_NAMES)}
    table = []
    for a in Q8_NAMES:
        row = []
        sa, la = decode(a)
        for b in Q8_NAMES:
            sb, lb = decode(b)
            sm, lm = _Q8_MUL[(la, lb)]
            row.append(idx[encode(sa * sb * sm, lm)])
        table.append(row)
    return CayleyGroup(table, identity=0, name="Q8")


# --- coordinate-tuple arithmetic: the oracle for int element values --------


def coordinate_tuples(group) -> list[tuple]:
    """Every coordinate tuple of a cyclic product, in lexicographic order."""
    return list(itertools.product(*(range(n) for n in group.orders)))


def tuple_add(group, a: tuple, b: tuple) -> tuple:
    """a + b on coordinate tuples of a cyclic product."""
    return tuple((x + y) % n for x, y, n in zip(a, b, group.orders))


def tuple_neg(group, a: tuple) -> tuple:
    """-a on a coordinate tuple of a cyclic product."""
    return tuple((-x) % n for x, n in zip(a, group.orders))


# --- object-level oracles for the int and bitmask fast paths -----------------


def _object_cyclic_subgroup(e) -> set:
    seen = {e.group.zero()}
    acc = e
    while acc not in seen:
        seen.add(acc)
        acc = acc + e
    return seen


def oracle_find_bad_pair(group):
    """First nonzero (g1, g2) in canonical order whose coset order modulo <g2> exceeds 2."""
    zero = group.zero()
    elems = sorted(group.elements(), key=group.elem_sort_key)
    for g1 in elems:
        if g1 == zero:
            continue
        for g2 in elems:
            if g2 == zero:
                continue
            sub = _object_cyclic_subgroup(g2)
            acc, coset_order = g1, 1
            while acc not in sub:
                acc, coset_order = acc + g1, coset_order + 1
            if coset_order > 2:
                return (g1, g2)
    return None


def oracle_reachable_weights(chain) -> frozenset:
    """Core weight plus every subset of deltas, summed left to right on GroupElems."""
    zero = chain.group.zero()
    acc = {chain.core_weight}
    for d in chain.deltas:
        acc = {a + x for a in acc for x in (zero, d)}
    return frozenset(acc)


def oracle_reroute_subset(chain, target):
    """Lexicographically smallest detour subset whose left-to-right sum is target, or None."""
    found = []
    for r in range(chain.length + 1):
        for subset in itertools.combinations(range(chain.length), r):
            total = chain.core_weight
            for i in subset:
                total = total + chain.deltas[i]
            if total == target:
                found.append(subset)
    return min(found) if found else None


# --- brute-force oracles for the Menger connectivity tests ------------------


def oracle_pair_inseparable(graph, u, v) -> bool:
    """No deletion of at most two other vertices separates u from v, trying every cut."""
    others = [x for x in graph.vertices if x not in (u, v)]
    for r in (0, 1, 2):
        for cut in itertools.combinations(others, r):
            if v not in graph.component_of(u, forbidden=frozenset(cut)):
                return False
    return True


def oracle_is_three_connected(graph) -> bool:
    """At least 4 vertices and no deletion of at most 2 vertices disconnects the graph."""
    if len(graph.vertices) < 4:
        return False
    for r in (0, 1, 2):
        for cut in itertools.combinations(graph.vertices, r):
            start = next(x for x in graph.vertices if x not in cut)
            if len(graph.component_of(start, forbidden=frozenset(cut))) != len(graph.vertices) - r:
                return False
    return True
