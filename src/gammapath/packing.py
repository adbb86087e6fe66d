"""Exact desk-scale oracles: maximum disjoint packings and minimum hitting sets.

Families of terminal-linking paths are selected by weight, by nonzero weight,
by odd length, or by passing through a second vertex set.  Both solvers are
exact branch-and-bound searches with deterministic tie-breaking, so
certificates are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import DEFAULT_LIMITS, InternalInvariantError, Limits, LimitExceeded, PreconditionFailed
from .graphs import (
    DIRECTED,
    UNDIRECTED,
    LabelledGraph,
    PathWitness,
    _witnesses,
    terminal_path_tuples,
    vertex_key,
)
from .groups import GroupElem, _bits, elements_of_order_at_most_2


WEIGHT = "weight"
NONZERO = "nonzero"
ODD = "odd"
ABA = "aba"


@dataclass(frozen=True)
class PathFamilySpec:
    """A family of terminal-linking paths inside one labelled graph."""

    kind: str
    graph: LabelledGraph
    weight: GroupElem | None = None
    through: frozenset = frozenset()

    def __post_init__(self):
        if self.kind not in (WEIGHT, NONZERO, ODD, ABA):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == WEIGHT:
            if self.weight is None:
                raise ValueError("weight family needs a target element")
            # read as the graph reads its labels: an element of its group or a literal of one
            object.__setattr__(self, "weight", self.graph.group.element(self.weight))
        # read once, so a one-shot iterator is checked whole; a tuple, so a twin beside its id
        # (1 and 1.0) reaches the graph's check before a set merges them
        through = tuple(self.through)
        if self.kind == ABA and not through:
            raise ValueError("through-set family needs a vertex set")
        # the graph reads every id, so a float or bool twin is refused even beside an unknown id
        if not all([v in self.graph for v in through]):
            raise ValueError("through-set must consist of vertices")
        # kept as the graph keeps its terminals: hashable, and with the set methods the search uses
        object.__setattr__(self, "through", frozenset(through))

    def member_tuples(self, limits: Limits = DEFAULT_LIMITS) -> list[tuple[tuple, tuple, object]]:
        """The members as the kernel's (vertices, edge ids, weight value) tuples; no witness is built.

        An aba family's trivial members (its terminals, in vertex order) come
        first; the paths follow in key order, as `terminal_path_tuples` gives them.
        """
        g = self.graph
        if self.kind == WEIGHT:
            return terminal_path_tuples(g, weight=self.weight, limits=limits)
        # a member test reads the kernel's prefix (the path without its end and last edge) and the value
        if self.kind == NONZERO:
            zero = g.group._zero
            return terminal_path_tuples(g, keep=lambda path, edges, end, w: w != zero, limits=limits)
        if self.kind == ODD:
            return terminal_path_tuples(g, keep=lambda path, edges, end, w: not len(edges) % 2, limits=limits)
        through, zero = self.through, g.group._zero
        return [((a,), (), zero) for a in g._terminal_order if a in through] + terminal_path_tuples(
            g, keep=lambda path, edges, end, w: end in through or not through.isdisjoint(path), limits=limits
        )

    def members(self, limits: Limits = DEFAULT_LIMITS) -> list[PathWitness]:
        """A witness for every member, in the order of `member_tuples`: aba trivial members first, then key order."""
        return _witnesses(self.graph.group, self.member_tuples(limits))

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == WEIGHT:
            out["weight"] = self.weight.to_json()
        if self.kind == ABA:
            out["through"] = sorted(self.through, key=self.graph._rank.__getitem__)
        return out


@dataclass(frozen=True)
class PackOrCover:
    """A verified disjoint packing or a verified hitting set, with certificates."""

    kind: str  # "packing" | "cover"
    paths: tuple[PathWitness, ...] = ()
    vertices: frozenset = frozenset()
    nu: int | None = None
    tau: int | None = None

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "packing":
            out["paths"] = [p.to_json() for p in self.paths]
            out["size"] = len(self.paths)
        else:
            out["vertices"] = sorted(self.vertices, key=vertex_key)
            out["size"] = len(self.vertices)
        if self.nu is not None:
            out["nu"] = self.nu
        if self.tau is not None:
            out["tau"] = self.tau
        return out


class MemberTable:
    """One family as both exact solvers read it, built once: rows, vertex sets and member masks.

    Rows are a spec's `member_tuples` (a packing builds witnesses for its own
    members only) or the witnesses given.  through[v] masks the members through
    v; meets[i], the members sharing a vertex with i, i included, is 0 until read.
    """

    def __init__(self, family: PathFamilySpec | Iterable[PathWitness], limits: Limits = DEFAULT_LIMITS):
        spec = isinstance(family, PathFamilySpec)
        self.rows = family.member_tuples(limits) if spec else list(family)
        if len(self.rows) > limits.max_family:
            raise LimitExceeded("family size for the exact solvers", limits.max_family)
        self.group = family.graph.group if spec else None
        self.vsets = [row[0] for row in self.rows] if spec else [m.vertices for m in self.rows]
        through = self.through = {}
        for i, vs in enumerate(self.vsets):
            for v in vs:
                through[v] = through.get(v, 0) | 1 << i
        self.meets = [0] * len(self.rows)

    def witness(self, i: int) -> PathWitness:
        """Member i's witness: built from its tuple, or the witness the table was given."""
        row = self.rows[i]
        return row if self.group is None else PathWitness(row[0], row[1], GroupElem(self.group, row[2]))


def _meets(vs, through: dict) -> int:
    """The members that share a vertex with the member on vertex set vs, itself included."""
    mask = 0
    for v in vs:
        mask |= through[v]
    return mask


def max_packing(
    spec: PathFamilySpec | MemberTable | Iterable[PathWitness], limits: Limits = DEFAULT_LIMITS
) -> tuple[int, tuple[PathWitness, ...]]:
    """Exact maximum number of pairwise vertex-disjoint members, with a witness.

    Branch and bound over the conflict structure: greedy start, a greedy
    clique-cover bound (bitset colouring), branching on the member that
    conflicts with the most others (smallest index on ties).  Members are
    numbered in the family's order (aba trivial members first, then key
    order), and a witness is built only for each packed member.
    """
    table = spec if isinstance(spec, MemberTable) else MemberTable(spec, limits)
    vsets, through, meets = table.vsets, table.through, table.meets
    n = len(vsets)
    for i, vs in enumerate(vsets):
        if not meets[i]:
            meets[i] = _meets(vs, through)

    # greedy seed: scan members by increasing conflict count, smallest index first
    taken = 0
    for i in sorted(range(n), key=lambda i: meets[i].bit_count()):
        if not meets[i] & taken:
            taken |= 1 << i
    best_choice = tuple(_bits(taken))
    best = len(best_choice)

    def bound(free: int) -> int:
        # greedy clique cover of the conflict graph on free: each clique grows
        # from its lowest member by the lowest member conflicting with all so far
        count = 0
        while free:
            count += 1
            cand = free
            while cand:
                low = cand & -cand
                free ^= low
                cand = cand & meets[low.bit_length() - 1] ^ low  # meets holds low itself
        return count

    # depth-first on an explicit stack, include-branch first; a state is
    # checked against the bound when it is popped, as on entry to a call
    stack: list[tuple[int, list[int]]] = [((1 << n) - 1, [])]
    while stack:
        free, chosen = stack.pop()
        if len(chosen) + bound(free) <= best:
            continue
        # branch on the free member with most free conflicts, smallest index first
        pick = max(_bits(free), key=lambda i: (meets[i] & free).bit_count(), default=None)
        if pick is None or meets[pick] & free == 1 << pick:
            # the free members are pairwise disjoint, so the bound is their
            # number and taking them all beats the best
            best_choice = tuple(sorted(chosen + list(_bits(free))))
            best = len(best_choice)
            continue
        stack.append((free & ~(1 << pick), chosen))
        stack.append((free & ~meets[pick], chosen + [pick]))

    chosen_paths = tuple(table.witness(i) for i in best_choice)
    _verify_packing(chosen_paths)
    return best, chosen_paths


def min_cover(
    spec: PathFamilySpec | MemberTable | Iterable[PathWitness], limits: Limits = DEFAULT_LIMITS
) -> tuple[int, frozenset]:
    """Exact minimum vertex set meeting every member, with a witness; it builds no path witness.

    Branches on a shortest uncovered member, the lowest among those in the
    family's order (aba trivial members first, then key order): one of its
    vertices must be chosen.  A greedy disjoint-members bound prunes.
    """
    table = spec if isinstance(spec, MemberTable) else MemberTable(spec, limits)
    vsets, through, meets = table.vsets, table.through, table.meets
    keys = {v: vertex_key(v) for v in through}  # each vertex's sort key, computed once
    # one mask of members per path length, shortest first: walking them visits
    # members shortest first, lowest index first within a length
    by_len: dict = {}
    for i, vs in enumerate(vsets):
        by_len[len(vs)] = by_len.get(len(vs), 0) | 1 << i
    lengths = [by_len[k] for k in sorted(by_len)]
    everyone = (1 << len(vsets)) - 1

    # greedy upper bound: repeatedly take the vertex hitting most uncovered members
    cover = []
    uncovered = everyone
    while uncovered:
        v = min(keys, key=lambda x: (-(through[x] & uncovered).bit_count(), keys[x]))
        cover.append(v)
        uncovered &= ~through[v]
    best = len(cover)
    best_cover = frozenset(cover)

    # depth-first on an explicit stack of (uncovered members, chosen vertices),
    # children in vertex order; a state is checked against the bound when it
    # is popped, as on entry to a call
    stack = [(everyone, ())]
    while stack:
        uncovered, chosen = stack.pop()
        # greedy set of pairwise disjoint uncovered members, shortest first
        disjoint = 0
        rest = uncovered
        for length in lengths:
            cand = rest & length
            while cand:
                i = (cand & -cand).bit_length() - 1
                if not meets[i]:
                    meets[i] = _meets(vsets[i], through)
                rest &= ~meets[i]
                cand &= rest
                disjoint += 1
        if len(chosen) + disjoint >= best:
            continue
        if not uncovered:
            best = len(chosen)
            best_cover = frozenset(chosen)
            continue
        shortest = next(uncovered & length for length in lengths if uncovered & length)
        first = sorted(vsets[(shortest & -shortest).bit_length() - 1], key=keys.__getitem__, reverse=True)
        stack.extend((uncovered & ~through[v], chosen + (v,)) for v in first)

    _verify_cover(vsets, best_cover)
    return best, best_cover


def _verify_cover(vertex_sets, cover: frozenset) -> None:
    for vs in vertex_sets:
        if cover.isdisjoint(vs):
            raise InternalInvariantError("claimed cover misses a family member")


def _verify_packing(paths) -> None:
    used: set = set()
    for p in paths:
        if used.intersection(p.vertices):
            raise InternalInvariantError("claimed packing has two members sharing a vertex")
        used.update(p.vertices)


def duality_report(
    spec: PathFamilySpec, limits: Limits = DEFAULT_LIMITS
) -> dict:
    """Run both oracles on one member table and check the two-per-packed-path cover bound.

    The family is enumerated once, in its order (aba trivial members first,
    then key order), and its `MemberTable` shared; witnesses are built only
    for the packing.  The bound tau <= 2*nu is a theorem for
    the odd and through-set families and for nonzero weights in the directed
    model (or when every label has order at most two, where the two models
    coincide); violating it there is an implementation bug.  For other
    families the comparison is reported but carries no guarantee.
    """
    table = MemberTable(spec, limits)
    nu, packing = max_packing(table, limits)
    tau, cover = min_cover(table, limits)
    if nu > tau:
        raise InternalInvariantError("packing larger than cover")
    backed = spec.kind in (ODD, ABA)
    if spec.kind == NONZERO:
        group = spec.graph.group
        backed = spec.graph.model == DIRECTED or len(elements_of_order_at_most_2(group)) == group.order
    bound_ok = tau <= 2 * nu
    if backed and not bound_ok:
        raise InternalInvariantError(
            f"cover {tau} exceeds twice the packing {nu} for a guaranteed family"
        )
    return {
        "nu": nu,
        "tau": tau,
        "ratio": (tau / nu) if nu else None,
        "bound_ok": bound_ok,
        "theorem_backed": backed,
        "packing": PackOrCover("packing", paths=packing, nu=nu, tau=tau),
        "cover": PackOrCover("cover", vertices=cover, nu=nu, tau=tau),
    }


def reduce_weight_to_zero(
    graph: LabelledGraph, ell: GroupElem, g: GroupElem
) -> LabelledGraph:
    """Relabel so that weight-ell terminal paths become exactly the zero ones.

    Requires g + g = ell; subtracts g once per terminal endpoint of each edge
    (twice when both endpoints are terminals, the length-one path case).
    """
    if graph.model != UNDIRECTED:
        raise PreconditionFailed("the reduction applies to the orientation-free model")
    group = graph.group
    ell = group.element(ell)
    g = group.element(g)
    if g + g != ell:
        raise PreconditionFailed(f"need g+g = target, got {g!r}")
    terminals = graph.terminals
    add, minus_g = group._add, group._neg(g.value)
    values = []
    for _, u, v, label, _ in graph.edges:
        x = label.value
        for _ in range((u in terminals) + (v in terminals)):
            x = add(x, minus_g)
        values.append(x)
    return graph._revalued(values)
