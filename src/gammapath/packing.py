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
    enumerate_terminal_paths,
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

    def members(self, limits: Limits = DEFAULT_LIMITS) -> list[PathWitness]:
        """Exhaustively enumerate the family, in deterministic order."""
        g = self.graph
        if self.kind == WEIGHT:
            return list(enumerate_terminal_paths(g, weight=self.weight, limits=limits))
        # a member test reads the kernel's prefix (the path without its end and last edge) and the value
        if self.kind == NONZERO:
            zero = g.group._zero
            return list(enumerate_terminal_paths(g, keep=lambda path, edges, end, w: w != zero, limits=limits))
        if self.kind == ODD:
            return list(
                enumerate_terminal_paths(g, keep=lambda path, edges, end, w: not len(edges) % 2, limits=limits)
            )
        through = self.through
        members = [PathWitness((a,), (), g.group.zero()) for a in g._terminal_order if a in through]
        members += enumerate_terminal_paths(
            g, keep=lambda path, edges, end, w: end in through or not through.isdisjoint(path), limits=limits
        )
        return members

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


def _family(members_or_spec, limits: Limits) -> list[PathWitness]:
    if isinstance(members_or_spec, PathFamilySpec):
        members = members_or_spec.members(limits)
    else:
        members = list(members_or_spec)
    if len(members) > limits.max_family:
        raise LimitExceeded("family size for the exact solvers", limits.max_family)
    return members


def _through(vertex_sets) -> dict:
    """Member masks by vertex: bit i of through[v] is set when member i passes through v."""
    through: dict = {}
    for i, vs in enumerate(vertex_sets):
        for v in vs:
            through[v] = through.get(v, 0) | 1 << i
    return through


def _meets(vs, through: dict) -> int:
    """The members that share a vertex with the member on vertex set vs, itself included."""
    mask = 0
    for v in vs:
        mask |= through[v]
    return mask


def max_packing(
    spec: PathFamilySpec | Iterable[PathWitness], limits: Limits = DEFAULT_LIMITS
) -> tuple[int, tuple[PathWitness, ...]]:
    """Exact maximum number of pairwise vertex-disjoint members, with a witness.

    Branch and bound over the conflict structure: greedy start, a greedy
    clique-cover bound (bitset colouring), branching on the member that
    conflicts with the most others (smallest index on ties).
    """
    members = _family(spec, limits)
    n = len(members)
    through = _through([m.vertices for m in members])
    conflict = [_meets(m.vertices, through) & ~(1 << i) for i, m in enumerate(members)]

    # greedy seed: scan members by increasing conflict count, smallest index first
    taken = 0
    for i in sorted(range(n), key=lambda i: conflict[i].bit_count()):
        if not conflict[i] & taken:
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
                cand &= conflict[low.bit_length() - 1]
        return count

    # depth-first on an explicit stack, include-branch first; a state is
    # checked against the bound when it is popped, as on entry to a call
    stack: list[tuple[int, list[int]]] = [((1 << n) - 1, [])]
    while stack:
        free, chosen = stack.pop()
        if len(chosen) + bound(free) <= best:
            continue
        # branch on the free member with most free conflicts, smallest index first
        pick = max(_bits(free), key=lambda i: (conflict[i] & free).bit_count(), default=None)
        if pick is None or not conflict[pick] & free:
            # the free members are pairwise disjoint, so the bound is their
            # number and taking them all beats the best
            best_choice = tuple(sorted(chosen + list(_bits(free))))
            best = len(best_choice)
            continue
        stack.append((free & ~(1 << pick), chosen))
        stack.append((free & ~(1 << pick) & ~conflict[pick], chosen + [pick]))

    chosen_paths = tuple(members[i] for i in best_choice)
    _verify_packing(chosen_paths)
    return best, chosen_paths


def min_cover(
    spec: PathFamilySpec | Iterable[PathWitness], limits: Limits = DEFAULT_LIMITS
) -> tuple[int, frozenset]:
    """Exact minimum vertex set meeting every member, with a witness.

    Branches on a shortest uncovered member (one of its vertices must be
    chosen); a greedy disjoint-members bound prunes.
    """
    members = _family(spec, limits)
    # each vertex's sort key, computed once; members renumbered shortest first,
    # so the lowest uncovered bit is a shortest uncovered member
    keys = {v: vertex_key(v) for v in set().union(*(m.vertices for m in members))}
    vsets = sorted((m.vertices for m in members), key=len)
    through = _through(vsets)
    meets = [0] * len(vsets)  # _meets of member i, made when the bound first reads it
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
        while rest:
            i = (rest & -rest).bit_length() - 1
            if not meets[i]:
                meets[i] = _meets(vsets[i], through)
            rest &= ~meets[i]
            disjoint += 1
        if len(chosen) + disjoint >= best:
            continue
        if not uncovered:
            best = len(chosen)
            best_cover = frozenset(chosen)
            continue
        first = sorted(vsets[(uncovered & -uncovered).bit_length() - 1], key=keys.__getitem__, reverse=True)
        stack.extend((uncovered & ~through[v], chosen + (v,)) for v in first)

    _verify_cover(members, best_cover)
    return best, best_cover


def _verify_cover(members, cover: frozenset) -> None:
    for m in members:
        if cover.isdisjoint(m.vertices):
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
    """Run both oracles and check the two-per-packed-path cover bound.

    The bound tau <= 2*nu is a theorem for the odd and through-set families
    and for nonzero weights in the directed model (or when every label has
    order at most two, where the two models coincide); violating it there is
    an implementation bug.  For other families the comparison is reported
    but carries no guarantee.
    """
    members = spec.members(limits)
    nu, packing = max_packing(members, limits)
    tau, cover = min_cover(members, limits)
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
