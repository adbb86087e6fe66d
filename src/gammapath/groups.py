"""Group arithmetic and the classification predicates for path-weight families.

Three kinds of groups are supported: products of cyclic groups (written
additively), arbitrary finite groups given by a Cayley table, and the
integers.  Every element value is an int: a finite group numbers its elements
0..n-1 in canonical order, and coordinates appear only where elements are
read or written.  All values are immutable; every operation is a pure
function.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import re
from dataclasses import dataclass
from typing import Iterator

from .errors import GroupMismatchError, InternalInvariantError, UsageError, parsing, require_keys

INFINITE = math.inf


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _prime_factorization(n: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def _invariant_factors_from_orders(orders: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical d_1 | d_2 | ... | d_m decomposition of a product of cyclic groups."""
    by_prime: dict[int, list[int]] = {}
    for m in orders:
        for p, e in _prime_factorization(m).items():
            by_prime.setdefault(p, []).append(e)
    for exps in by_prime.values():
        exps.sort(reverse=True)
    width = max((len(v) for v in by_prime.values()), default=0)
    factors = []
    for i in range(width):
        d = 1
        for p, exps in by_prime.items():
            if i < len(exps):
                d *= p ** exps[i]
        factors.append(d)
    factors.sort()
    return tuple(factors)


def _partitions(n: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def abelian_types(order: int) -> list[tuple[int, ...]]:
    """All abelian groups of the given order, as invariant-factor tuples."""
    # one partition of each prime's exponent gives the prime-power cyclic factors
    per_prime = [
        [tuple(p ** k for k in part) for part in _partitions(e)]
        for p, e in sorted(_prime_factorization(order).items())
    ]
    return sorted(
        {_invariant_factors_from_orders(sum(combo, ())) for combo in itertools.product(*per_prime)}
    )


@dataclass(frozen=True)
class GroupElem:
    """An element of a specific group; value is an int.

    For a finite group the int is the element's index in canonical order,
    for the integers it is the integer itself.
    """

    group: "GroupSpec"
    value: int

    def __add__(self, other: "GroupElem") -> "GroupElem":
        return self.group.add(self, other)

    def __neg__(self) -> "GroupElem":
        return self.group.neg(self)

    def __sub__(self, other: "GroupElem") -> "GroupElem":
        return self.group.add(self, self.group.neg(other))

    def __bool__(self) -> bool:
        return self.value != self.group._zero

    def __hash__(self) -> int:
        # the value alone: equality still compares the group, so equal elements hash alike
        return hash(self.value)

    def to_json(self):
        return self.group.elem_to_json(self)

    def __repr__(self):
        return f"<{self.group.decode(self.value)!r} in {self.group.name}>"


class GroupSpec:
    """Shared interface of the three group kinds; each has `_add`/`_neg` on element values.

    A group holds element values only, never a `GroupElem` of itself, so it is freed by
    reference counting; its identity is `_key`, hashed once into `_hash`.
    """

    kind: str
    name: str
    is_abelian: bool
    is_finite: bool
    _zero: int
    _key: tuple
    _hash: int

    def __eq__(self, other):
        return other is self or isinstance(other, GroupSpec) and other._key == self._key

    def __hash__(self):
        return self._hash

    def _check(self, *elems: GroupElem) -> None:
        for e in elems:
            if e.group is not self and e.group != self:
                raise GroupMismatchError(f"element {e!r} does not belong to {self.name}")

    def zero(self) -> GroupElem:
        return GroupElem(self, self._zero)

    def add(self, a: GroupElem, b: GroupElem) -> GroupElem:
        raise NotImplementedError

    def neg(self, a: GroupElem) -> GroupElem:
        raise NotImplementedError

    def element(self, value) -> GroupElem:
        raise NotImplementedError

    def elements(self) -> list[GroupElem]:
        raise NotImplementedError

    def decode(self, value: int):
        """The element value as written outside the program (repr, JSON)."""
        return value

    @property
    def order(self) -> int | float:
        raise NotImplementedError

    def elem_sort_key(self, e: GroupElem):
        raise NotImplementedError

    def elem_to_json(self, e: GroupElem):
        raise NotImplementedError

    def invariant_factors(self) -> tuple[int, ...]:
        """Invariant-factor decomposition; only for finite abelian groups."""
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _rotate(mask: int, d: int, n: int) -> int:
    """{d + x : x in mask} over Z/n: the n-bit mask rotated left by d places."""
    return (mask << d | mask >> (n - d)) & ((1 << n) - 1)


class FiniteGroup(GroupSpec):
    """A finite group whose element values are 0..n-1 in canonical order.

    `_add(i, j)` and `_neg(i)` act on values, and a set of elements is an int
    bitmask with bit i for value i.  `prime` is p when the group is cyclic of
    prime order p, where the Cauchy-Davenport bound applies, and None
    otherwise.
    """

    is_finite = True

    def __init__(self, order: int, zero: int, add, neg, rotates: bool = False):
        self._order = order
        self._zero = zero
        self._add = add
        self._neg = neg
        self._subgroups: dict[int, int] = {}  # value -> its cyclic subgroup mask, walked on first use
        self._bad_pair = ...  # the values of find_bad_pair's answer, searched on first use
        # with a single cyclic factor, d + x is (d + x) mod n: a rotation of the bits
        self._rotates = rotates
        # a group of prime order p is cyclic, and no other group has invariant factors (p,)
        self.prime = order if _is_prime(order) else None

    @property
    def order(self) -> int:
        return self._order

    def elem_sort_key(self, e: GroupElem):
        return e.value

    def from_mask(self, mask: int) -> frozenset[GroupElem]:
        """The elements whose values are the set bits of mask."""
        return frozenset(GroupElem(self, i) for i in _bits(mask))

    def translate(self, d: int, mask: int) -> int:
        """Bitmask of {d + x : x in mask}."""
        if self._rotates:
            return _rotate(mask, d, self._order)
        add = self._add
        out = 0
        for x in _bits(mask):
            out |= 1 << add(d, x)
        return out

    def sumset(self, xs: int, ys: int) -> int:
        """Bitmask of {x + y}; checks the prime-field lower bound when it applies."""
        out = 0
        for x in _bits(xs):
            out |= self.translate(x, ys)
        return self._bounded(xs, ys, out)

    def optional_sum(self, d: int, ys: int) -> int:
        """Bitmask of {0, d} + ys, checked as `sumset` is: one rotate-or on one cyclic factor."""
        xs = 1 << self._zero | 1 << d
        if not self._rotates:
            return self.sumset(xs, ys)
        return self._bounded(xs, ys, ys | _rotate(ys, d, self._order))

    def _bounded(self, xs: int, ys: int, out: int) -> int:
        """out, the sumset of xs and ys, once it meets Cauchy-Davenport over Z/p."""
        if self.prime is not None and xs and ys:
            size = out.bit_count()
            if size < xs.bit_count() + ys.bit_count() - 1 and size < self.prime:
                raise InternalInvariantError(
                    f"sumset bound violated over {self.name}: |X+Y|={size}"
                )
        return out

    def cyclic(self, g: int) -> int:
        """Bitmask of the cyclic subgroup generated by the element with value g."""
        if g in self._subgroups:
            return self._subgroups[g]
        zero, add = self._zero, self._add
        mask = 1 << zero
        acc = g
        while acc != zero:
            mask |= 1 << acc
            acc = add(acc, g)
        self._subgroups[g] = mask
        return mask

    def coset_order_above_two(self, g1: int, sub: int) -> bool:
        """Whether g1 + H has order > 2 in the quotient by the subgroup mask H."""
        return not (sub >> g1 & 1 or sub >> self._add(g1, g1) & 1)


class CyclicProduct(FiniteGroup):
    """Direct product of cyclic groups Z/n1 x ... x Z/nk, written additively.

    An element's value is its coordinate tuple read in mixed radix, the last
    coordinate fastest, so value order is coordinate-tuple order.
    """

    kind = "cyclic_product"
    is_abelian = True

    def __init__(self, orders: list[int] | tuple[int, ...]):
        orders = tuple(int(n) for n in orders)
        if any(n < 2 for n in orders):
            raise ValueError("cyclic factor orders must all be >= 2")
        self.orders = orders
        self._invariants = _invariant_factors_from_orders(orders)
        self.name = "x".join(f"Z/{n}" for n in orders) if orders else "trivial"
        self._key = ("cyclic_product", orders)
        self._hash = hash(self._key)
        # (order, place value) of each coordinate; no order^2 table
        self._radix = radix = tuple((n, math.prod(orders[k + 1 :])) for k, n in enumerate(orders))
        if len(orders) == 1:
            n = orders[0]
            super().__init__(n, 0, lambda i, j: (i + j) % n, lambda i: -i % n, rotates=True)
            return
        super().__init__(
            math.prod(orders),
            0,
            lambda i, j: sum((i // s + j // s) % n * s for n, s in radix),
            lambda i: sum(-(i // s) % n * s for n, s in radix),
        )

    def element(self, value) -> GroupElem:
        if isinstance(value, GroupElem):
            self._check(value)
            return value
        if type(value) is int:
            if len(self.orders) != 1:
                raise ValueError(f"{self.name} needs {len(self.orders)} coordinates")
            return GroupElem(self, value % self._order)
        if type(value) not in (list, tuple) or len(value) != len(self.orders) or any(type(c) is not int for c in value):
            raise ValueError(f"invalid literal for {self.name}: {value!r}")
        return GroupElem(self, sum(c % n * s for c, (n, s) in zip(value, self._radix)))

    def add(self, a: GroupElem, b: GroupElem) -> GroupElem:
        self._check(a, b)
        return GroupElem(self, self._add(a.value, b.value))

    def neg(self, a: GroupElem) -> GroupElem:
        self._check(a)
        return GroupElem(self, self._neg(a.value))

    def elements(self) -> list[GroupElem]:
        return [GroupElem(self, i) for i in range(self._order)]

    def decode(self, value: int) -> tuple[int, ...]:
        return tuple(value // s % n for n, s in self._radix)

    def elem_to_json(self, e: GroupElem):
        return list(self.decode(e.value))

    def invariant_factors(self) -> tuple[int, ...]:
        return self._invariants

    def to_json(self) -> dict:
        return {"type": "cyclic_product", "orders": list(self.orders)}


class CayleyGroup(FiniteGroup):
    """Finite group given explicitly by its Cayley table; may be nonabelian.

    table[a][b] is the index of a+b; the group axioms are checked at
    construction time.
    """

    kind = "cayley"

    def __init__(self, table: list[list[int]] | tuple, identity: int = 0, name: str | None = None):
        tab = tuple(tuple(int(x) for x in row) for row in table)
        n = len(tab)
        if n < 1 or any(len(row) != n for row in tab):
            raise ValueError("Cayley table must be square and nonempty")
        if any(x < 0 or x >= n for row in tab for x in row):
            raise ValueError("Cayley table entries must be element indices")
        identity = int(identity)
        if not 0 <= identity < n:
            raise ValueError("identity index out of range")
        for a in range(n):
            if tab[a][identity] != a or tab[identity][a] != a:
                raise ValueError("identity element does not act as identity")
        for a in range(n):
            if identity not in tab[a]:
                raise ValueError(f"element {a} has no inverse")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if tab[tab[a][b]][c] != tab[a][tab[b][c]]:
                        raise ValueError("Cayley table is not associative")
        self.table = tab
        self.identity = identity
        self.is_abelian = all(tab[a][b] == tab[b][a] for a in range(n) for b in range(n))
        self.name = name or f"cayley[{n}]"
        self._key = ("cayley", tab, identity)
        self._hash = hash(self._key)
        self._inverse = tuple(tab[a].index(identity) for a in range(n))
        super().__init__(n, identity, lambda i, j: tab[i][j], self._inverse.__getitem__)

    def element(self, value) -> GroupElem:
        if isinstance(value, GroupElem):
            self._check(value)
            return value
        if type(value) is not int:
            raise ValueError(f"invalid literal for {self.name}: {value!r}")
        if not 0 <= value < self._order:
            raise ValueError(f"element index {value} out of range for {self.name}")
        return GroupElem(self, value)

    def add(self, a: GroupElem, b: GroupElem) -> GroupElem:
        # left-to-right as written: a + b = table[a][b]
        self._check(a, b)
        return GroupElem(self, self.table[a.value][b.value])

    def neg(self, a: GroupElem) -> GroupElem:
        self._check(a)
        return GroupElem(self, self._inverse[a.value])

    def elements(self) -> list[GroupElem]:
        return [GroupElem(self, i) for i in range(self._order)]

    def elem_to_json(self, e: GroupElem):
        return e.value

    def invariant_factors(self) -> tuple[int, ...]:
        if not self.is_abelian:
            raise ValueError("invariant factors are defined for abelian groups only")
        # The multiset {#elements killed by d : d | n} pins down the type;
        # d kills exactly the elements whose order divides d.
        n = self._order
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        orders = [self.cyclic(i).bit_count() for i in range(n)]
        counts = tuple(sum(1 for o in orders if d % o == 0) for d in divisors)
        for candidate in abelian_types(n):
            model = tuple(math.prod(math.gcd(d, f) for f in candidate) for d in divisors)
            if model == counts:
                return candidate
        raise InternalInvariantError(f"no abelian type matches {self.name}")

    def to_json(self) -> dict:
        return {"type": "cayley", "identity": self.identity, "table": [list(r) for r in self.table]}


_DECIMAL = re.compile("-?[0-9]+")


class IntegerGroup(GroupSpec):
    """The additive group of integers, with arbitrary precision."""

    kind = "integers"
    is_abelian = True
    is_finite = False
    name = "Z"
    _zero = 0
    _key = ("integers",)
    _hash = hash(_key)
    _add = staticmethod(operator.add)
    _neg = staticmethod(operator.neg)

    @property
    def order(self) -> float:
        return INFINITE

    def element(self, value) -> GroupElem:
        if isinstance(value, GroupElem):
            self._check(value)
            return value
        # an int, or the decimal string that to_json writes
        if type(value) is str and _DECIMAL.fullmatch(value):
            value = int(value)
        if type(value) is not int:
            raise ValueError(f"invalid literal for {self.name}: {value!r}")
        return GroupElem(self, value)

    def add(self, a: GroupElem, b: GroupElem) -> GroupElem:
        self._check(a, b)
        return GroupElem(self, a.value + b.value)

    def neg(self, a: GroupElem) -> GroupElem:
        self._check(a)
        return GroupElem(self, -a.value)

    def elements(self) -> list[GroupElem]:
        raise ValueError("the integers cannot be enumerated")

    def elem_sort_key(self, e: GroupElem):
        # 0 < 1 < -1 < 2 < -2 < ...: gives a deterministic "smallest witness" order
        return (abs(e.value), 0 if e.value >= 0 else 1)

    def elem_to_json(self, e: GroupElem):
        return str(e.value)

    def to_json(self) -> dict:
        return {"type": "integers"}


# group_from_json's groups by their canonical JSON, emptied when full; each process keeps its
# own, so a forked verify-suite worker fills a copy
_GROUP_MEMO_SIZE = 32
_groups_by_json: dict[str, GroupSpec] = {}


def group_from_json(data: dict) -> GroupSpec:
    """The group that data describes: equal JSON gives the same object, built and checked once."""
    try:
        key = json.dumps(data, sort_keys=True)
    except (TypeError, ValueError):
        return _build_group(data)
    group = _groups_by_json.get(key)
    if group is None:
        group = _build_group(data)
        if len(_groups_by_json) >= _GROUP_MEMO_SIZE:
            _groups_by_json.clear()
        _groups_by_json[key] = group
    return group


_INT_SHAPES = ("an int", "a list of ints", "a list of lists of ints")


def _json_ints(value, key: str, depth: int):
    """value, if it is an int (never a bool) inside depth levels of lists; else a usage error naming key."""

    def fits(x, d):
        return isinstance(x, list) and all(fits(y, d - 1) for y in x) if d else type(x) is int

    if not fits(value, depth):
        raise UsageError(f"bad group JSON: {key!r} must be {_INT_SHAPES[depth]}")
    return value


def _build_group(data: dict) -> GroupSpec:
    require_keys(data, ("type",), "group")
    kind = data["type"]
    with parsing("group"):
        if kind == "cyclic_product":
            require_keys(data, ("orders",), "group")
            return CyclicProduct(_json_ints(data["orders"], "orders", 1))
        if kind == "cayley":
            require_keys(data, ("table",), "group")
            table = _json_ints(data["table"], "table", 2)
            return CayleyGroup(table, _json_ints(data.get("identity", 0), "identity", 0))
    if kind == "integers":
        return IntegerGroup()
    raise UsageError(f"unknown group type {kind!r}")


def element_order(e: GroupElem) -> int | float:
    """Smallest n >= 1 with n*e = 0; INFINITE for a nonzero integer."""
    group = e.group
    if not group.is_finite:
        return INFINITE if e else 1
    return group.cyclic(e.value).bit_count()


def cyclic_subgroup(e: GroupElem) -> frozenset[GroupElem]:
    """The subgroup generated by e, as an explicit element set."""
    group = e.group
    if not group.is_finite:
        raise ValueError("cyclic subgroups of the integers are infinite")
    return group.from_mask(group.cyclic(e.value))


def subgroup_contains(generator: GroupElem, target: GroupElem) -> bool:
    generator.group._check(target)
    return target in cyclic_subgroup(generator)


def elements_of_order_at_most_2(group: GroupSpec) -> frozenset[GroupElem]:
    """Exactly the g with g + g = 0 (the admissible shift values)."""
    if not group.is_finite:
        return frozenset({group.zero()})
    add, zero = group._add, group._zero
    return frozenset(GroupElem(group, g) for g in range(group.order) if add(g, g) == zero)


def find_halving(group: GroupSpec, ell: GroupElem) -> GroupElem | None:
    """Smallest g (canonical order, which is value order) with g + g = ell, or None."""
    if not group.is_finite:
        raise ValueError("halving search requires a finite group")
    group._check(ell)
    add = group._add
    for g in range(group.order):
        if add(g, g) == ell.value:
            return GroupElem(group, g)
    return None


def find_bad_pair(group: GroupSpec) -> tuple[GroupElem, GroupElem] | None:
    """Nonzero (g1, g2) whose coset of g1 has order > 2 modulo <g2>, or None.

    Deterministic: the lexicographically first pair in canonical element
    order.  Such a pair exists exactly when the group fails the zero-weight
    packing/covering dichotomy, and it parameterizes the grid counterexample.
    """
    if not group.is_finite or not group.is_abelian:
        raise ValueError("bad-pair search requires a finite abelian group")
    if group._bad_pair is ...:
        group._bad_pair = _search_bad_pair(group)
    if group._bad_pair is None:
        return None
    g1, g2 = group._bad_pair
    return GroupElem(group, g1), GroupElem(group, g2)


def _search_bad_pair(group: FiniteGroup) -> tuple[int, int] | None:
    zero = group._zero
    nonzero = [g for g in range(group.order) if g != zero]
    subgroups = [group.cyclic(g) for g in range(group.order)]
    for g1 in nonzero:
        for g2 in nonzero:
            if group.coset_order_above_two(g1, subgroups[g2]):
                return g1, g2
    return None


def _require_classifiable(group: GroupSpec) -> None:
    if group.is_finite and not group.is_abelian:
        raise ValueError("classification predicates apply to abelian groups")


def has_zero_path_ep(group: GroupSpec) -> bool:
    """Whether zero-weight terminal-linking paths admit a bounded dual cover.

    True exactly for elementary abelian 2-groups and cyclic groups of order 4
    or prime order.  This is has_weight_ep at ell = 0, which computes the
    verdict from the invariant factors and from the bad-pair search.
    """
    return has_weight_ep(group, group.zero())


def _ell_ep_from_list(group: GroupSpec, ell: GroupElem) -> bool:
    factors = group.invariant_factors()
    if all(f == 2 for f in factors):
        return not ell or factors == (2,)
    if factors == (4,):
        return not ell or group._add(ell.value, ell.value) == group._zero
    return len(factors) == 1 and _is_prime(factors[0])


def _ell_ep_by_replay(group: GroupSpec, ell: GroupElem) -> bool:
    """Re-derive the verdict by replaying the reduction chain step by step."""
    if not ell:
        return find_bad_pair(group) is None
    # A nonzero g whose cyclic subgroup misses ell yields a grid counterexample.
    for g in range(group.order):
        if g != group._zero and not group.cyclic(g) >> ell.value & 1:
            return False
    # Otherwise the order of ell must be prime, the group order a power of it,
    # and the subgroup generated by ell the unique one of that order.
    p = element_order(ell)
    if not _is_prime(p):
        raise InternalInvariantError(f"expected prime order for {ell!r}, got {p}")
    n = group.order
    while n % p == 0:
        n //= p
    if n != 1:
        raise InternalInvariantError(f"{group.name} is not a {p}-group")
    if sum(1 for g in range(group.order) if group.cyclic(g).bit_count() == p) != p - 1:
        raise InternalInvariantError(f"{group.name} has several subgroups of order {p}")
    if group.order == 2:
        return True  # parity family; equivalent to the orientation-free model
    g = find_halving(group, ell)
    if g is None:
        raise InternalInvariantError(f"no halving element for {ell!r} in {group.name}")
    return find_bad_pair(group) is None


def has_weight_ep(group: GroupSpec, ell: GroupElem) -> bool:
    """Whether weight-ell terminal-linking paths admit a bounded dual cover.

    Computed twice (explicit list vs. proof replay); disagreement raises an
    internal error.
    """
    _require_classifiable(group)
    if not group.is_finite:
        return False
    group._check(ell)
    listed = _ell_ep_from_list(group, ell)
    replayed = _ell_ep_by_replay(group, ell)
    if listed != replayed:
        raise InternalInvariantError(
            f"weight classification disagrees on {group.name}, ell={ell!r}: "
            f"list says {listed}, replay says {replayed}"
        )
    return listed


def sumset(xs: set[GroupElem] | frozenset[GroupElem], ys: set[GroupElem] | frozenset[GroupElem]) -> frozenset[GroupElem]:
    """{x + y : x in X, y in Y}; checks the prime-field lower bound when it applies."""
    if not xs or not ys:
        return frozenset()
    group = next(iter(xs)).group
    if not group.is_finite:
        return frozenset(x + y for x in xs for y in ys)
    group._check(*xs, *ys)
    xm, ym = (sum(1 << i for i in {e.value for e in s}) for s in (xs, ys))
    return group.from_mask(group.sumset(xm, ym))


def iter_abelian_groups(max_order: int) -> Iterator[CyclicProduct]:
    """All finite abelian groups with order <= max_order, up to isomorphism."""
    for n in range(1, max_order + 1):
        for factors in abelian_types(n):
            yield CyclicProduct(factors)
