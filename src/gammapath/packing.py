"""Exact desk-scale oracles: maximum disjoint packings and minimum hitting sets.

Families of terminal-linking paths are selected by weight, by nonzero weight,
by odd length, or by passing through a second vertex set.  Both solvers are
exact branch-and-bound searches with deterministic tie-breaking, so
certificates are reproducible.
"""

from __future__ import annotations

import warnings
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
from .groups import GroupElem, _bits


WEIGHT = "weight"
NONZERO = "nonzero"
ODD = "odd"
ABA = "aba"


class TerminalEdgeWarning(UserWarning):
    """An edge joins two terminals; its label is shifted at both ends."""


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
            self.graph.group._check(self.weight)
        if self.kind == ABA and not self.through:
            raise ValueError("through-set family needs a vertex set")
        if not set(self.through) <= set(self.graph.vertices):
            raise ValueError("through-set must consist of vertices")

    def members(self, limits: Limits = DEFAULT_LIMITS) -> list[PathWitness]:
        """Exhaustively enumerate the family, in deterministic order."""
        g = self.graph
        if self.kind == WEIGHT:
            return list(enumerate_terminal_paths(g, weight=self.weight, limits=limits))
        if self.kind == NONZERO:
            return list(enumerate_terminal_paths(g, nonzero=True, limits=limits))
        if self.kind == ODD:
            return [p for p in enumerate_terminal_paths(g, limits=limits) if len(p.edge_ids) % 2]
        members = []
        for a in sorted(g.terminals & self.through, key=vertex_key):
            members.append(PathWitness((a,), (), g.group.zero(), trivial=True))
        for p in enumerate_terminal_paths(g, limits=limits):
            if set(p.vertices) & self.through:
                members.append(p)
        return members

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == WEIGHT:
            out["weight"] = self.weight.to_json()
        if self.kind == ABA:
            out["through"] = sorted(self.through, key=vertex_key)
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


def max_packing(
    spec: PathFamilySpec | Iterable[PathWitness], limits: Limits = DEFAULT_LIMITS
) -> tuple[int, tuple[PathWitness, ...]]:
    """Exact maximum number of pairwise vertex-disjoint members, with a witness.

    Branch and bound over the conflict structure: greedy start, clique-cover
    style bound, branching on the member that conflicts with the most others
    (smallest index on ties).
    """
    members = _family(spec, limits)
    n = len(members)
    if n == 0:
        return 0, ()
    # bit i of through[v] is set when member i passes through v
    through: dict = {}
    for i, m in enumerate(members):
        for v in m.vertices:
            through[v] = through.get(v, 0) | 1 << i
    conflict = [0] * n
    for i, m in enumerate(members):
        for v in m.vertices:
            conflict[i] |= through[v]
        conflict[i] &= ~(1 << i)

    # greedy seed: scan members by increasing conflict count
    order = sorted(range(n), key=lambda i: (conflict[i].bit_count(), i))
    best_set: list[int] = []
    taken = 0
    for i in order:
        if not conflict[i] & taken:
            best_set.append(i)
            taken |= 1 << i
    best = len(best_set)
    best_choice = tuple(sorted(best_set))

    all_free = (1 << n) - 1

    def bound(free: int) -> int:
        # greedy clique cover of the conflict graph restricted to free
        count = 0
        rest = free
        while rest:
            i = (rest & -rest).bit_length() - 1
            clique = rest & (conflict[i] | (1 << i))
            # members pairwise conflicting with i need not conflict mutually;
            # shrink to a genuine clique around i greedily
            keep = 1 << i
            cand = clique & ~(1 << i)
            while cand:
                j = (cand & -cand).bit_length() - 1
                if (conflict[j] | (1 << j)) & keep == keep:
                    keep |= 1 << j
                cand &= cand - 1
            rest &= ~keep
            count += 1
        return count

    # depth-first on an explicit stack, include-branch first; a state is
    # checked against the bound when it is popped, as on entry to a call
    stack: list[tuple[int, list[int]]] = [(all_free, [])]
    while stack:
        free, chosen = stack.pop()
        if len(chosen) + bound(free) <= best:
            continue
        if not free:
            if len(chosen) > best:
                best = len(chosen)
                best_choice = tuple(sorted(chosen))
            continue
        # branch on the free member with most free conflicts, smallest index first
        pick = -1
        pick_deg = -1
        rest = free
        while rest:
            i = (rest & -rest).bit_length() - 1
            deg = (conflict[i] & free).bit_count()
            if deg > pick_deg:
                pick, pick_deg = i, deg
            rest &= rest - 1
        if pick_deg == 0:
            # all remaining are pairwise disjoint
            rest = free
            count = free.bit_count()
            if len(chosen) + count > best:
                sel = chosen[:]
                while rest:
                    i = (rest & -rest).bit_length() - 1
                    sel.append(i)
                    rest &= rest - 1
                best = len(sel)
                best_choice = tuple(sorted(sel))
            continue
        stack.append((free & ~(1 << pick), chosen))
        stack.append((free & ~(1 << pick) & ~conflict[pick], chosen + [pick]))

    chosen_paths = tuple(members[i] for i in best_choice)
    return best, chosen_paths


def min_cover(
    spec: PathFamilySpec | Iterable[PathWitness], limits: Limits = DEFAULT_LIMITS
) -> tuple[int, frozenset]:
    """Exact minimum vertex set meeting every member, with a witness.

    Branches on a shortest uncovered member (one of its vertices must be
    chosen); a greedy disjoint-members bound prunes.
    """
    members = _family(spec, limits)
    if not members:
        return 0, frozenset()
    # each vertex's sort key, computed once
    keys = {v: vertex_key(v) for m in members for v in m.vertices}
    vsets = [tuple(sorted(set(m.vertices), key=keys.__getitem__)) for m in members]
    order = sorted(range(len(vsets)), key=lambda i: (len(vsets[i]), i))
    # vertex sets as bitmasks, bit k for the k-th vertex met
    bit = {v: 1 << k for k, v in enumerate(keys)}
    vmask = [sum(bit[v] for v in vs) for vs in vsets]
    by_bit = list(keys)

    # greedy upper bound: repeatedly take the vertex hitting most uncovered members
    cover: set = set()
    uncovered = set(range(len(vsets)))
    while uncovered:
        counts: dict = {}
        for i in uncovered:
            for v in vsets[i]:
                counts[v] = counts.get(v, 0) + 1
        v = min(counts, key=lambda x: (-counts[x], keys[x]))
        cover.add(v)
        uncovered = {i for i in uncovered if v not in vsets[i]}
    best = len(cover)
    best_cover = frozenset(cover)

    def disjoint_bound(uncovered_ids: list[int]) -> int:
        used = 0
        count = 0
        for i in uncovered_ids:
            if not vmask[i] & used:
                used |= vmask[i]
                count += 1
        return count

    # depth-first on an explicit stack of chosen-vertex masks, children in
    # vertex order; a state is checked against the bound when it is popped,
    # as on entry to a call
    stack = [0]
    while stack:
        chosen = stack.pop()
        size = chosen.bit_count()
        uncovered_ids = [i for i in order if not vmask[i] & chosen]
        if not uncovered_ids:
            if size < best:
                best = size
                best_cover = frozenset(by_bit[k] for k in _bits(chosen))
            continue
        if size + disjoint_bound(uncovered_ids) >= best:
            continue
        stack.extend(chosen | bit[v] for v in reversed(vsets[uncovered_ids[0]]))

    _verify_cover(members, best_cover)
    return best, best_cover


def _verify_cover(members, cover: frozenset) -> None:
    for m in members:
        if not cover.intersection(m.vertices):
            raise InternalInvariantError("claimed cover misses a family member")


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
        backed = spec.graph.model == DIRECTED or (
            group.is_finite
            and all(group.add(g, g) == group.zero() for g in group.elements())
        )
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
    if any(e.u in terminals and e.v in terminals for e in graph.edges):
        warnings.warn(
            "an edge joins two terminals; its label is shifted at both ends",
            TerminalEdgeWarning,
            stacklevel=2,
        )

    def relabel(e):
        ends = (e.u in terminals) + (e.v in terminals)
        out = e.label
        for _ in range(ends):
            out = out - g
        return out

    return graph.with_labels(relabel)
