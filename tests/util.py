"""Shared helpers for the test suite: small concrete groups and naive oracles."""

from __future__ import annotations

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
