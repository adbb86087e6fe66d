"""Core-path-plus-detours structures and rerouting to a prescribed weight.

A chain is a terminal-linking core path together with disjoint detours, each
spanning its own interval of the core; replacing interval i by its detour
changes the total weight by a fixed delta.  Subset-sum dynamic programming
over the group decides which targets are attainable; over a prime field every
target is attainable once there are p-1 nonzero deltas, and the bound is
sharp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import InternalInvariantError, PreconditionFailed
from .graphs import UNDIRECTED, LabelledGraph, PathWitness, _check_input, walk_weight
from .groups import CyclicProduct, GroupElem, GroupSpec, _is_prime


@dataclass(frozen=True)
class CycleChain:
    """Core path plus detours; abstract (weights only) or embedded in a graph.

    deltas[i] is detour weight minus interval weight; the chain is nonzero
    when every delta is.  Embedded chains also carry the geometry and can be
    rerouted into a concrete path witness.
    """

    group: GroupSpec
    core_weight: GroupElem
    deltas: tuple[GroupElem, ...]
    graph: LabelledGraph | None = None
    core: PathWitness | None = None
    detours: tuple[PathWitness, ...] = ()
    intervals: tuple[tuple[int, int], ...] = ()  # index range on the core, inclusive

    @property
    def length(self) -> int:
        return len(self.deltas)

    @property
    def is_nonzero(self) -> bool:
        return all(self.deltas)

    @property
    def is_embedded(self) -> bool:
        return self.graph is not None

    @classmethod
    def abstract(cls, group: GroupSpec, core_weight, deltas) -> "CycleChain":
        core_weight = group.element(core_weight)
        return cls(group, core_weight, tuple(group.element(d) for d in deltas))

    @classmethod
    def embedded(
        cls, graph: LabelledGraph, core: PathWitness, detours: list[PathWitness]
    ) -> "CycleChain":
        """Validate the geometry and compute interval deltas."""
        if graph.model != UNDIRECTED:
            raise PreconditionFailed("chains live in the orientation-free model")
        _check_input(graph, core, "chain core")
        pos = {v: i for i, v in enumerate(core.vertices)}
        terminals = graph.terminals
        used: set = set()
        spans = []  # (i, j, detour oriented from core.vertices[i])
        for idx, q in enumerate(detours):
            if set(q.vertices) & terminals:
                raise PreconditionFailed("detour touches the terminal set")
            if not all(v in pos for v in q.endpoints):
                raise PreconditionFailed("detour endpoints must lie on the core")
            if any(v in pos for v in q.vertices[1:-1]):
                raise PreconditionFailed("detour interior meets the core")
            if set(q.vertices) & used:
                raise PreconditionFailed("detours are not pairwise disjoint")
            used |= set(q.vertices)
            i, j = sorted(pos[v] for v in q.endpoints)
            if i == j:
                raise PreconditionFailed("detour must span a nontrivial interval")
            if q.vertices[0] != core.vertices[i]:
                q = q.reversed(graph)
            _check_input(graph, q, f"chain detour {idx}", as_terminal_path=False)
            spans.append((i, j, q))
        spans.sort(key=lambda span: span[:2])
        for (_, last, _), (i, _, _) in zip(spans, spans[1:]):
            if i <= last:
                raise PreconditionFailed("detour intervals overlap along the core")
        deltas = tuple(q.weight - walk_weight(graph, core.vertices[i : j + 1], core.edge_ids[i:j]) for i, j, q in spans)
        return cls(
            graph.group,
            core.weight,
            deltas,
            graph,
            core,
            tuple(q for _, _, q in spans),
            tuple((i, j) for i, j, _ in spans),
        )

    def to_json(self) -> dict:
        out = {
            "group": self.group.to_json(),
            "core_weight": self.core_weight.to_json(),
            "deltas": [d.to_json() for d in self.deltas],
        }
        if self.is_embedded:
            out["core"] = self.core.to_json()
            out["detours"] = [q.to_json() for q in self.detours]
        return out


@dataclass(frozen=True)
class Reroute:
    """A subset of detours realizing a target weight, plus the spliced path."""

    subset: tuple[int, ...]
    weight: GroupElem
    path: PathWitness | None


def _suffix_sums(group: GroupSpec, deltas) -> list[int]:
    """Subset-sum DP on element masks, one bound-checked sumset per detour.

    deltas are element values.  suffix[i] is the bitmask of the sums
    d_j1 + ... + d_jk, added left to right, over i <= j1 < ... < jk; the empty
    sum is included.
    """
    unit, step = 1 << group._zero, group.optional_sum
    suffix = [unit] * (len(deltas) + 1)
    for i in range(len(deltas) - 1, -1, -1):
        suffix[i] = step(deltas[i], suffix[i + 1])
    return suffix


def reachable_mask(group: GroupSpec, core: int, deltas) -> int:
    """Bitmask of the weights attainable from core value and delta values."""
    if not group.is_finite:
        raise PreconditionFailed("reachability needs a finite group")
    return group.translate(core, _suffix_sums(group, deltas)[0])


def multiset_masks(group: GroupSpec, values, length: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """(multiset, reachable mask from zero) for each sorted `length`-tuple of values, in order.

    Over an abelian group the mask depends on the multiset of deltas only, so the
    sorted tuples are walked as a tree of shared prefixes, one `optional_sum` per node.
    """
    if not (group.is_finite and group.is_abelian):
        raise PreconditionFailed("the multiset walk needs a finite abelian group")
    values, step = sorted(values), group.optional_sum
    stack = [((), 0, 1 << group._zero)]  # (prefix, index of its last value, mask)
    while stack:
        prefix, start, mask = stack.pop()
        if len(prefix) == length:
            yield prefix, mask
            continue
        for k in range(len(values) - 1, start - 1, -1):
            stack.append((prefix + (values[k],), k, step(values[k], mask)))


def reachable_weights(chain: CycleChain) -> frozenset[GroupElem]:
    """All weights attainable by switching any subset of detours on."""
    deltas = [d.value for d in chain.deltas]
    return chain.group.from_mask(reachable_mask(chain.group, chain.core_weight.value, deltas))


def reroute_to_weight(chain: CycleChain, target) -> Reroute | None:
    """Reroute the chain to the target weight, or None when unattainable.

    Subset-sum dynamic programming over the group, one reachable-set per
    suffix; the witness subset is the lexicographically smallest one, rebuilt
    front to back against the suffix sets.
    """
    group = chain.group
    if not group.is_finite:
        raise PreconditionFailed("rerouting needs a finite group")
    target = group.element(target)
    suffix = _suffix_sums(group, [d.value for d in chain.deltas])
    add, neg, goal = group._add, group._neg, target.value
    acc = chain.core_weight.value
    # acc + rest = goal needs rest = -acc + goal among the suffix sums
    if not suffix[0] >> add(neg(acc), goal) & 1:
        return None
    subset = []
    start = 0
    while acc != goal:
        for i in range(start, chain.length):
            step = add(acc, chain.deltas[i].value)
            if suffix[i + 1] >> add(neg(step), goal) & 1:
                subset.append(i)
                acc = step
                start = i + 1
                break
        else:
            raise InternalInvariantError("suffix reachability lied during reconstruction")
    path = _splice(chain, subset) if chain.is_embedded else None
    if path is not None and path.weight != target:
        raise InternalInvariantError("spliced path weight disagrees with the target")
    return Reroute(tuple(subset), target, path)


def _splice(chain: CycleChain, subset: list[int]) -> PathWitness:
    """The core with each detour in subset in place of its interval."""
    core, verts, edges, pos = chain.core, [], [], 0
    for idx in subset:
        (a, b), q = chain.intervals[idx], chain.detours[idx]
        verts += core.vertices[pos:a] + q.vertices[:-1]
        edges += core.edge_ids[pos:a] + q.edge_ids
        pos = b
    verts += core.vertices[pos:]
    edges += core.edge_ids[pos:]
    return PathWitness.of(chain.graph, verts, edges)


def zero_path_from_chain(chain: CycleChain) -> Reroute:
    """Reroute a nonzero prime-field chain of length >= p-1 to weight zero."""
    p = chain.group.prime if chain.group.is_finite else None
    if p is None:
        raise PreconditionFailed("guaranteed rerouting needs a prime-order cyclic group")
    if not chain.is_nonzero:
        raise PreconditionFailed("chain has a zero delta")
    if chain.length < p - 1:
        raise PreconditionFailed(f"chain length {chain.length} below {p - 1}")
    out = reroute_to_weight(chain, chain.group.zero())
    if out is None:
        raise InternalInvariantError("prime-field chain missed a weight; sumset bound broken")
    return out


def sharpness_witness(p: int) -> CycleChain:
    """Ladder-shaped chain of length p-2 with unit core weight and unit deltas.

    Zero weight is unreachable, showing the p-1 length bound is tight; the
    chain is embedded in a concrete labelled graph and checked on build.
    """
    if not _is_prime(p) or p < 3:
        raise ValueError("need a prime p >= 3")
    group = CyclicProduct((p,))
    n = p - 2
    edges = []
    # core: a - x1 - y1 - x2 - y2 - ... - xn - yn - b, first edge weight 1
    names = ["a"]
    for i in range(1, n + 1):
        names += [f"x{i}", f"y{i}"]
    names.append("b")
    for s, t in zip(names, names[1:]):
        edges.append((s, t, 1 if s == "a" else 0))
    core_edge_count = len(edges)
    for i in range(1, n + 1):
        edges.append((f"x{i}", f"d{i}", 1))
        edges.append((f"d{i}", f"y{i}", 0))
    graph = LabelledGraph.build(group, UNDIRECTED, edges, ["a", "b"])
    core = PathWitness.of(graph, names, range(core_edge_count))
    detours = []
    for i in range(1, n + 1):
        es = (core_edge_count + 2 * (i - 1), core_edge_count + 2 * (i - 1) + 1)
        detours.append(PathWitness.of(graph, (f"x{i}", f"d{i}", f"y{i}"), es, as_terminal_path=False))
    chain = CycleChain.embedded(graph, core, detours)
    if chain.core_weight != group.element(1) or any(
        d != group.element(1) for d in chain.deltas
    ):
        raise InternalInvariantError("ladder construction produced wrong weights")
    if reroute_to_weight(chain, group.zero()) is not None:
        raise InternalInvariantError("sharpness chain unexpectedly reaches zero")
    return chain
