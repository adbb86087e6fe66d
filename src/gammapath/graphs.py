"""Group-labelled multigraphs, path witnesses, and the structural operations.

Two labelling models are supported.  In the oriented model every edge carries
a direction and traversing an edge against it negates its label; in the
orientation-free model weights are plain label sums and the group must be
abelian.  Graphs are immutable; mutating operations return new graphs.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from itertools import pairwise
from typing import Callable, Iterator, NamedTuple

from .errors import (
    DEFAULT_LIMITS,
    InternalInvariantError,
    Limits,
    LimitExceeded,
    NormalizationFailed,
    PreconditionFailed,
    require_keys,
)
from .groups import GroupElem, GroupSpec, _bits

DIRECTED = "directed"
UNDIRECTED = "undirected"


def vertex_key(v):
    """Total order over mixed int/str vertex ids."""
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ValueError(f"vertex ids must be ints or strings, got {v!r}")
    return (0, v, "") if isinstance(v, int) else (1, 0, v)


class Edge(NamedTuple):
    eid: int | str
    u: int | str
    v: int | str
    label: GroupElem
    tail: int | str | None = None

    def sign_into(self, endpoint) -> int:
        """+1 when traversal ends at the head, -1 when it ends at the tail."""
        return 1 if endpoint != self.tail else -1


class LabelledGraph:
    """Multigraph with a group label per edge and a distinguished terminal set."""

    def __init__(self, group: GroupSpec, model: str, vertices, edges, terminals=()):
        if model not in (DIRECTED, UNDIRECTED):
            raise ValueError(f"unknown model {model!r}")
        if model == UNDIRECTED and not group.is_abelian:
            raise ValueError("the orientation-free model requires an abelian group")
        self.group = group
        self.model = model
        # ids are checked by their sort keys before they are hashed
        self.vertices = tuple(dict.fromkeys(_sorted_ids(vertices, vertex_key)))
        # vertices are sorted, so index ranks order them as their keys do
        self._rank = rank = dict(zip(self.vertices, range(len(self.vertices))))
        by_id = {}
        for e in edges:
            if not isinstance(e, Edge):
                e = Edge(*e)
            eid, u, v, label, tail = e
            if type(eid) is not int:
                _eid_key(eid)
            if eid in by_id:
                raise ValueError(f"duplicate edge id {eid!r}")
            if u not in rank or v not in rank:
                raise ValueError(f"edge {eid!r} has an endpoint outside the vertex set")
            if u == v:
                raise ValueError(f"edge {eid!r} is a loop")
            # an element made on this very group (graph_from_json's) is valid already
            if not (isinstance(label, GroupElem) and label.group is group):
                e = Edge(eid, u, v, group.element(label), tail)
            if model == DIRECTED:
                if tail not in (u, v):
                    raise ValueError(f"edge {eid!r} needs an orientation in the directed model")
            elif tail is not None:
                raise ValueError(f"edge {eid!r} carries an orientation in the undirected model")
            by_id[eid] = e
        ids = _sorted_ids(by_id, _eid_key)
        self.edges = tuple(map(by_id.__getitem__, ids))
        self.terminals = frozenset(terminals)
        if not self.terminals <= rank.keys():
            raise ValueError("terminals must be vertices")
        self._by_id = by_id
        self._erank = dict(zip(ids, range(len(ids))))
        self._link()

    def _link(self) -> None:
        """`_adj[v]`: (edge, neighbour) by neighbour rank, then edge order; `_steps[v]`, the path
        kernel's table: (edge id, neighbour, step value) in that order, the step negated into a tail;
        `_parallel`: whether two edges join the same two vertices (their half-edges are adjacent)."""
        rank, vertices, edges = self._rank, self.vertices, self.edges
        # one sort of all half-edges: (vertex rank, neighbour rank, edge index) is unique
        half = []
        for i, (_, u, v, _, _) in enumerate(edges):
            ru, rv = rank[u], rank[v]
            half.append((ru, rv, i))
            half.append((rv, ru, i))
        half.sort()
        self._parallel = any(x == a and y == b for (x, y, _), (a, b, _) in pairwise(half))
        adj = [[] for _ in vertices]
        steps = [[] for _ in vertices]
        neg = self.group._neg
        for x, y, i in half:
            e = edges[i]
            eid, _, _, label, tail = e
            w = vertices[y]
            adj[x].append((e, w))
            steps[x].append((eid, w, neg(label.value) if w == tail else label.value))
        self._adj = dict(zip(vertices, adj))
        self._steps = dict(zip(vertices, map(tuple, steps)))

    @classmethod
    def build(cls, group, model, edges, terminals=(), extra_vertices=()):
        """Convenience constructor: edges as (u, v, label[, tail]), ids auto-assigned."""
        vertices = set(extra_vertices) | set(terminals)
        full = []
        for i, spec in enumerate(edges):
            u, v, label = spec[0], spec[1], spec[2]
            tail = spec[3] if len(spec) > 3 else (u if model == DIRECTED else None)
            vertices.update((u, v))
            full.append(Edge(i, u, v, label, tail))
        return cls(group, model, vertices, full, terminals)

    # --- basic accessors -------------------------------------------------

    def edge(self, eid) -> Edge:
        return self._by_id[eid]

    def incident(self, v):
        return self._adj[v]

    def __contains__(self, v) -> bool:
        return v in self._adj

    # --- derived graphs ---------------------------------------------------

    def without_vertices(self, removed) -> "LabelledGraph":
        removed = set(removed)
        keep = [v for v in self.vertices if v not in removed]
        edges = [e for e in self.edges if e.u not in removed and e.v not in removed]
        return LabelledGraph(self.group, self.model, keep, edges, self.terminals - removed)

    def with_labels(self, relabel: Callable[[Edge], GroupElem]) -> "LabelledGraph":
        """The same graph with each edge's label replaced by relabel(edge), checked on the group."""
        out = copy.copy(self)
        element = self.group.element
        out.edges = tuple(Edge(e.eid, e.u, e.v, element(relabel(e)), e.tail) for e in self.edges)
        out._by_id = {e.eid: e for e in out.edges}
        out._link()
        return out

    # --- connectivity helpers --------------------------------------------

    def component_of(self, start, forbidden=frozenset()) -> set:
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for _, y in self._adj[x]:
                if y not in seen and y not in forbidden:
                    seen.add(y)
                    stack.append(y)
        return seen

    def components(self, forbidden=frozenset()) -> list[set]:
        left = set(self.vertices) - forbidden
        out = []
        for start in self.vertices:
            if start in left:
                comp = self.component_of(start, forbidden)
                out.append(comp)
                left -= comp
        return out

    def is_three_connected(self) -> bool:
        """At least 4 vertices and every pair inseparable (Whitney)."""
        n = len(self.vertices)
        return n >= 4 and all(m | 1 << i == (1 << n) - 1 for i, m in enumerate(_inseparable_masks(self)))

    def to_json(self) -> dict:
        out = {
            "group": self.group.to_json(),
            "model": self.model,
            "vertices": list(self.vertices),
            "A": sorted(self.terminals, key=vertex_key),
            "edges": [],
        }
        for e in self.edges:
            entry = {"id": e.eid, "u": e.u, "v": e.v, "label": e.label.to_json()}
            if self.model == DIRECTED:
                entry["tail"] = e.tail
            out["edges"].append(entry)
        return out


def _sorted_ids(ids, key) -> list:
    """ids in key order: plain ints sort as themselves, other ids are checked by key."""
    ids = list(ids)
    return sorted(ids) if set(map(type, ids)) == {int} else sorted(ids, key=key)


def _eid_key(eid):
    """Total order over mixed int/str edge ids."""
    if isinstance(eid, bool) or not isinstance(eid, (int, str)):
        raise ValueError(f"edge ids must be ints or strings, got {eid!r}")
    return (0, eid, "") if isinstance(eid, int) else (1, 0, eid)


@dataclass(frozen=True)
class PathWitness:
    """A concrete path with its computed weight; the universal certificate."""

    vertices: tuple
    edge_ids: tuple
    weight: GroupElem
    trivial: bool = False

    @property
    def endpoints(self) -> tuple:
        return (self.vertices[0], self.vertices[-1])

    def reversed(self, graph: LabelledGraph) -> "PathWitness":
        return PathWitness(
            tuple(reversed(self.vertices)),
            tuple(reversed(self.edge_ids)),
            walk_weight(graph, tuple(reversed(self.vertices)), tuple(reversed(self.edge_ids))),
            self.trivial,
        )

    def validate(self, graph: LabelledGraph, as_terminal_path: bool = True) -> None:
        """Re-check simplicity, terminal pattern, and the stored weight."""
        if self.trivial:
            if len(self.vertices) != 1 or self.edge_ids:
                raise InternalInvariantError("malformed trivial witness")
            if self.weight != graph.group.zero():
                raise InternalInvariantError("trivial witness must have zero weight")
            return
        if len(self.vertices) != len(self.edge_ids) + 1 or not self.edge_ids:
            raise InternalInvariantError("malformed witness sequence")
        if len(set(self.vertices)) != len(self.vertices):
            raise InternalInvariantError("witness revisits a vertex")
        if walk_weight(graph, self.vertices, self.edge_ids) != self.weight:
            raise InternalInvariantError("stored weight disagrees with the walk weight")
        if as_terminal_path:
            a = graph.terminals
            if self.vertices[0] not in a or self.vertices[-1] not in a:
                raise InternalInvariantError("witness endpoints are not terminals")
            if any(v in a for v in self.vertices[1:-1]):
                raise InternalInvariantError("witness passes through a terminal")

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": list(self.edge_ids),
            "weight": self.weight.to_json(),
            **({"trivial": True} if self.trivial else {}),
        }

    @classmethod
    def from_json(cls, graph: LabelledGraph, data: dict) -> "PathWitness":
        require_keys(data, ("vertices", "edges"), "witness")
        vertices = tuple(data["vertices"])
        edges = tuple(data["edges"])
        if data.get("trivial"):
            return cls(vertices, (), graph.group.zero(), trivial=True)
        return cls(vertices, edges, walk_weight(graph, vertices, edges))


def walk_weight(graph: LabelledGraph, vertices, edge_ids) -> GroupElem:
    """Weight of a walk given as alternating vertex and edge-id sequences.

    Accumulates left to right (meaningful for nonabelian groups); in the
    directed model each label is negated when the edge is traversed against
    its orientation.
    """
    vertices = tuple(vertices)
    edge_ids = tuple(edge_ids)
    if len(vertices) != len(edge_ids) + 1 or not vertices:
        raise ValueError("walk must alternate vertices and edges")
    group = graph.group
    acc = group.zero()
    at = vertices[0]
    if at not in graph:
        raise ValueError(f"unknown vertex {at!r}")
    for eid, nxt in zip(edge_ids, vertices[1:]):
        if eid not in graph._by_id:
            raise ValueError(f"unknown edge {eid!r}")
        e = graph.edge(eid)
        if {at, nxt} != {e.u, e.v}:
            raise ValueError(f"edge {eid!r} does not join {at!r} and {nxt!r}")
        if graph.model == DIRECTED and e.sign_into(nxt) < 0:
            acc = acc + (-e.label)
        else:
            acc = acc + e.label
        at = nxt
    return acc


def search_paths(
    graph: LabelledGraph,
    sources,
    stop,
    accept: Callable[[list, list, object, object], bool],
    *,
    forbidden=frozenset(),
    max_len: int,
    max_count: int,
    cut: str,
) -> Iterator[tuple[tuple, tuple, int]]:
    """Simple paths from each source, in turn, that end at their first stop vertex.

    Depth-first in adjacency order, on an explicit stack.  A neighbour is
    checked in this order: forbidden vertices are skipped; a stop vertex ends
    the path, which is yielded as (vertices, edge ids, weight value) when
    accept(prefix vertices, prefix edge ids, end, last edge id) holds; any
    other unused vertex extends it.  The weight is an element value, summed
    left to right with `group._add` over the graph's step table as vertices
    are pushed; a step is the label's value, negated when the edge is
    traversed against its orientation in the directed model.

    A finished source is forbidden to later searches (on a copy of forbidden),
    so a path between two sources is found once, from the earlier one.

    The search owns its limits.  Accepted paths beyond max_count raise
    LimitExceeded("enumerated paths", max_count).  Paths longer than max_len
    edges are cut, and a search that runs to its end after cutting one
    raises LimitExceeded(cut, max_len), since its results may be incomplete;
    a caller that stops at its first hit never reaches that end.
    """
    add = graph.group._add
    steps = graph._steps
    zero = graph.group.zero().value
    forbidden = set(forbidden)
    found = 0
    truncated = False
    for source in sources:
        path, edges, weights, used = [source], [], [zero], {source}
        frames = [iter(steps[source])]
        while frames:
            budget = max_len - len(edges)
            for eid, nxt, step in frames[-1]:
                if nxt in forbidden:
                    continue
                if nxt in stop:
                    if budget < 1:
                        truncated = True
                    elif accept(path, edges, nxt, eid):
                        found += 1
                        if found > max_count:
                            raise LimitExceeded("enumerated paths", max_count)
                        yield tuple(path) + (nxt,), tuple(edges) + (eid,), add(weights[-1], step)
                    continue
                if nxt in used:
                    continue
                # an interior extension needs one edge now and at least one more to finish
                if budget < 2:
                    truncated = True
                    continue
                path.append(nxt)
                edges.append(eid)
                weights.append(add(weights[-1], step))
                used.add(nxt)
                frames.append(iter(steps[nxt]))
                break
            else:
                frames.pop()
                used.discard(path.pop())
                weights.pop()
                del edges[-1:]
        forbidden.add(source)
    if truncated:
        raise LimitExceeded(cut, max_len)


def search_terminal_paths(graph: LabelledGraph, terminals, *, blocked=frozenset(), limits: Limits, cut: str):
    """Each terminal path that avoids blocked, once, from its smaller end, as search_paths yields it.

    The terminals start their searches in vertex order and the largest starts
    none, so a cut at max_len raises only on a path that leaves a smaller
    terminal, which every terminal path does.
    """
    sources = [a for a in sorted(terminals, key=vertex_key) if a in graph and a not in blocked]
    return search_paths(
        graph, sources[:-1], terminals, lambda path, edges, end, eid: end != path[0],
        forbidden=blocked, max_len=limits.max_len, max_count=limits.max_paths, cut=cut,
    )


def enumerate_terminal_paths(
    graph: LabelledGraph,
    *,
    weight: GroupElem | None = None,
    nonzero: bool = False,
    terminals=None,
    keep: Callable[[tuple, tuple], bool] | None = None,
    limits: Limits = DEFAULT_LIMITS,
) -> tuple[PathWitness, ...]:
    """Exhaustively enumerate terminal-linking paths, optionally filtered.

    weight selects paths of one weight (in the directed model a path matches
    when either traversal direction attains it); nonzero selects paths of
    nonzero weight; keep(vertices, edge ids), when given, must also hold.
    The filters run before a witness is built; members of one weight share
    one element.  Results come in key order (vertex ranks, then edge ranks),
    the order the kernel meets them in: sources and neighbours run by rank,
    and two paths of a simple graph differ in their vertices.  Only parallel
    edges and a weight member kept reversed make a sort necessary.
    """
    if weight is not None and nonzero:
        raise ValueError("choose at most one filter")
    tset = graph.terminals if terminals is None else frozenset(terminals)
    group = graph.group
    zero = group.zero().value
    if weight is not None:
        weight = group.element(weight)
    directed = graph.model == DIRECTED
    elems: dict = {}
    unordered = graph._parallel
    out = []
    for vertices, edge_ids, w in search_terminal_paths(
        graph, tset, limits=limits, cut="path length during exhaustive enumeration"
    ):
        if keep is not None and not keep(vertices, edge_ids):
            continue
        if weight is not None:
            if w == weight.value:
                out.append(PathWitness(vertices, edge_ids, weight))
            elif directed and group._neg(w) == weight.value:
                out.append(
                    PathWitness(tuple(reversed(vertices)), tuple(reversed(edge_ids)), weight)
                )
                unordered = True
            continue
        if nonzero and w == zero:
            continue
        if w not in elems:
            elems[w] = GroupElem(group, w)
        out.append(PathWitness(vertices, edge_ids, elems[w]))
    if unordered:
        rank, erank = graph._rank, graph._erank
        out.sort(key=lambda p: ([rank[v] for v in p.vertices], [erank[e] for e in p.edge_ids]))
    return tuple(out)


def iter_simple_cycles(
    graph: LabelledGraph, cycle_cap: int
) -> Iterator[tuple[tuple, tuple, int]]:
    """All simple cycles (vertices, edge ids, weight value), each edge set exactly once.

    A cycle is closed at its smallest vertex and traversed in the first
    direction the search meets; cycles of two parallel edges are included.
    The weight is the value of that traversal's walk weight, so in the
    orientation-free model it is the plain label sum.
    """
    emitted: set[frozenset] = set()

    def closes(path: list, edges: list, end, eid) -> bool:
        # returning along the first edge is not a cycle; each edge set is listed once
        if eid == edges[0]:
            return False
        key = frozenset(edges) | {eid}
        if key in emitted:
            return False
        emitted.add(key)
        # the cap counts cycles over all starts, not per search
        if len(emitted) > cycle_cap:
            raise LimitExceeded("enumerated simple cycles", cycle_cap)
        return True

    smaller: set = set()
    for start in graph.vertices:
        # a simple cycle has at most n edges, so max_len cuts none
        yield from search_paths(
            graph, (start,), {start}, closes,
            forbidden=smaller, max_len=len(graph.vertices), max_count=cycle_cap, cut="cycle length",
        )
        smaller.add(start)


def _potential_certificate(graph: LabelledGraph) -> dict | None:
    """Per-vertex involutions phi with label(uv) = phi(u)+phi(v), if they exist.

    Such a certificate exhibits the labelling as a shift of the all-zero one,
    which forces every cycle weight to vanish.
    """
    group = graph.group
    zero = group.zero()
    phi: dict = {}
    # vertices are sorted, so each root is the smallest vertex of its component
    for root in graph.vertices:
        if root in phi:
            continue
        phi[root] = zero
        stack = [root]
        while stack:
            x = stack.pop()
            for e, y in graph.incident(x):
                if y in phi:
                    continue
                val = e.label - phi[x]
                if val + val != zero:
                    return None
                phi[y] = val
                stack.append(y)
    for e in graph.edges:
        if phi[e.u] + phi[e.v] != e.label:
            return None
    return phi


def is_gamma_bipartite(graph: LabelledGraph, cycle_cap: int | None = None) -> bool:
    """Whether every simple cycle has weight zero (orientation-free model)."""
    if graph.model != UNDIRECTED:
        raise PreconditionFailed("cycle weights are orientation-free only in the undirected model")
    if _potential_certificate(graph) is not None:
        return True
    cap = DEFAULT_LIMITS.cycle_cap if cycle_cap is None else cycle_cap
    zero = graph.group.zero().value
    for _, _, w in iter_simple_cycles(graph, cap):
        if w != zero:
            return False
    return True


def normalize_to_zero(
    graph: LabelledGraph, cycle_cap: int | None = None
) -> tuple[list[tuple[object, GroupElem]], LabelledGraph]:
    """Shift sequence turning a 3-connected all-zero-cycle labelling into all-zero.

    Verifies both preconditions; the shifts are the involution potential of
    `_potential_certificate`, whose root vertex is fixed at zero and which is
    checked on every edge.  3-connectivity makes it exist whenever every
    cycle is zero.
    """
    if graph.model != UNDIRECTED:
        raise PreconditionFailed("normalization applies to the orientation-free model")
    if not graph.is_three_connected():
        raise PreconditionFailed("graph is not 3-connected")
    phi = _potential_certificate(graph)
    if phi is None:
        if not is_gamma_bipartite(graph, cycle_cap):
            raise PreconditionFailed("labelling has a nonzero cycle")
        raise NormalizationFailed("a 3-connected zero-cycle labelling has no involution potential")
    zero = graph.group.zero()
    shifts = [(v, phi[v]) for v in graph.vertices if phi[v] != zero]
    return shifts, apply_shifts(graph, shifts)


def apply_shifts(graph: LabelledGraph, shifts) -> LabelledGraph:
    """Apply a sequence of shifts (vertex, g) in one relabelling pass.

    Each shift is checked as a single shift would be: the orientation-free
    model, g + g = 0 and a known vertex.  The model's group is abelian, so
    the shifts at a vertex can be summed first.
    """
    group = graph.group
    add, zero = group._add, group.zero().value
    total: dict = {}
    for v, g in shifts:
        if graph.model != UNDIRECTED:
            raise PreconditionFailed("shifting is defined in the orientation-free model")
        g = group.element(g)
        if add(g.value, g.value) != zero:
            raise PreconditionFailed(f"shift value must satisfy g+g=0, got {g!r}")
        if v not in graph:
            raise ValueError(f"unknown vertex {v!r}")
        total[v] = add(total.get(v, zero), g.value)
    return graph.with_labels(
        lambda e: GroupElem(group, add(add(e.label.value, total.get(e.u, zero)), total.get(e.v, zero)))
    )


# --- 3-blocks ---------------------------------------------------------------


@dataclass(frozen=True)
class Bridge:
    """A piece of the graph hanging off a block: component plus attachments."""

    vertices: tuple
    attachments: tuple
    edge_ids: tuple


@dataclass(frozen=True)
class ThreeBlock:
    vertices: tuple
    block_graph: LabelledGraph
    bridges: tuple[Bridge, ...]

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "graph": self.block_graph.to_json(),
            "bridges": [
                {
                    "vertices": list(b.vertices),
                    "attachments": list(b.attachments),
                    "edges": list(b.edge_ids),
                }
                for b in self.bridges
            ],
        }


def _inseparable_masks(graph: LabelledGraph) -> list[int]:
    """Bit t of entry s is set when no deletion of at most two other vertices
    separates graph.vertices[s] from graph.vertices[t].

    They split exactly when some third vertex v leaves them in no common
    block of G - v: if {v, w} splits them, w is a cut vertex between them in
    G - v, and such a cut vertex w makes {v, w} a split.  So each entry is the
    AND of the block-mate masks of every G - v, v counted a mate in its own
    pass, and of G itself, which decides pairs with no third vertex.
    """
    rank = graph._rank
    nbrs = [[rank[y] for _, y in graph._adj[v]] for v in graph.vertices]
    masks = _block_mates(nbrs)
    for v in range(len(nbrs)):
        masks = [m & (k | 1 << v) for m, k in zip(masks, _block_mates(nbrs, v))]
    return [m & ~(1 << s) for s, m in enumerate(masks)]


def _block_mates(nbrs: list, skip: int = -1) -> list[int]:
    """Entry x: the mask of the vertices sharing a block (biconnected
    component) with x once vertex skip is deleted; entry skip is -1, all bits.

    Hopcroft & Tarjan's depth-first search (CACM 1973) on an explicit stack:
    a child y of x closes a block, x and the vertices pushed since y, when no
    back edge from y's subtree reaches above x.  skip counts as visited
    deeper than any vertex, so it is never entered and lowers no low point.
    """
    n = len(nbrs)
    depth = [0] * n  # depth in the search forest from 1; 0 until visited
    low = [0] * n
    mates = [0] * n
    if skip >= 0:
        depth[skip], mates[skip] = n + 1, -1
    pushed: list[int] = []
    for root in range(n):
        if depth[root]:
            continue
        depth[root] = low[root] = 1
        frames = [(root, iter(nbrs[root]), 0)]
        while frames:
            x, it, height = frames[-1]
            for y in it:
                if not depth[y]:
                    depth[y] = low[y] = depth[x] + 1
                    frames.append((y, iter(nbrs[y]), len(pushed)))
                    pushed.append(y)
                    break
                if depth[y] < low[x]:
                    low[x] = depth[y]
            else:
                frames.pop()
                if frames:
                    p = frames[-1][0]
                    if low[x] < low[p]:
                        low[p] = low[x]
                    if low[x] >= depth[p]:
                        block = pushed[height:] + [p]
                        del pushed[height:]
                        mask = sum(1 << w for w in block)
                        for w in block:
                            mates[w] |= mask
    return mates


def _maximal_cliques(nbrs: list[int]) -> Iterator[int]:
    """Maximal cliques as bitmasks, nbrs[i] being the neighbour mask of i.

    Bron-Kerbosch with Tomita pivoting: branch only on the candidates that
    are not neighbours of the vertex of P | X with most neighbours in P.
    """

    def bk(r: int, p: int, x: int):
        if not p and not x:
            yield r
            return
        pivot = max(_bits(p | x), key=lambda u: (p & nbrs[u]).bit_count())
        for v in _bits(p & ~nbrs[pivot]):
            yield from bk(r | 1 << v, p & nbrs[v], x & nbrs[v])
            p &= ~(1 << v)
            x |= 1 << v

    yield from bk(0, (1 << len(nbrs)) - 1, 0)


def three_blocks(graph: LabelledGraph, limits: Limits = DEFAULT_LIMITS) -> list[ThreeBlock]:
    """All maximal >=3-vertex sets no two of whose members split at a 2-cut.

    Each block comes with its labelled form (one parallel edge per distinct
    weight realized by a path through the rest of the graph) and its bridges.
    """
    if graph.model != UNDIRECTED:
        raise PreconditionFailed("block decomposition is defined in the undirected model")
    blocks = [
        tuple(graph.vertices[i] for i in _bits(c))
        for c in _maximal_cliques(_inseparable_masks(graph))
        if c.bit_count() >= 3
    ]
    blocks.sort(key=lambda b: tuple(map(vertex_key, b)))
    out = []
    for bverts in blocks:
        bset = set(bverts)
        bridges = _bridges(graph, bset)
        edges = [
            Edge(f"b{i}", u, v, w, None)
            for i, (u, v, w) in enumerate(_block_path_weights(graph, bridges, limits))
        ]
        block_graph = LabelledGraph(graph.group, UNDIRECTED, bverts, edges, graph.terminals & bset)
        out.append(ThreeBlock(bverts, block_graph, bridges))
    return out


def _block_path_weights(graph, bridges, limits) -> list[tuple]:
    """(a, b, weight) for each distinct weight of an a-b path between block
    vertices whose interior avoids the block, pairs in the bridges' order.

    Such a path lies in one bridge on {a, b}, so one search per attachment
    pair, confined to its bridges, finds them all; it stops once it has every
    element of the group.  max_paths counts the paths accepted over all pairs.
    """
    group = graph.group
    confine: dict[tuple, set] = {}
    for bridge in bridges:
        if len(bridge.attachments) == 2:
            confine.setdefault(bridge.attachments, set(bridge.attachments)).update(bridge.vertices)
    vertices = set(graph.vertices)
    found = 0
    out = []
    for (a, b), allowed in confine.items():
        weights: set[int] = set()
        for _, _, w in search_paths(
            graph, (a,), {b}, lambda *_: True, forbidden=vertices - allowed,
            max_len=limits.max_len, max_count=limits.max_paths,
            cut="path length during block-weight enumeration",
        ):
            found += 1
            if found > limits.max_paths:
                raise LimitExceeded("enumerated paths", limits.max_paths)
            weights.add(w)
            if len(weights) == group.order:
                break
        elems = sorted((GroupElem(group, w) for w in weights), key=group.elem_sort_key)
        out += ((a, b, g) for g in elems)
    return out


def _bridges(graph: LabelledGraph, bset: set) -> tuple[Bridge, ...]:
    # vertices and edges are stored sorted, so their index ranks order them as their keys do
    rank, erank = graph._rank.__getitem__, graph._erank.__getitem__
    out = []
    for comp in graph.components(forbidden=bset):
        attach = set()
        edge_ids = set()
        for x in comp:
            for e, y in graph.incident(x):
                edge_ids.add(e.eid)
                if y in bset:
                    attach.add(y)
        if len(attach) > 2:
            raise InternalInvariantError("bridge with more than two attachments")
        out.append(
            Bridge(
                tuple(sorted(comp, key=rank)),
                tuple(sorted(attach, key=rank)),
                tuple(sorted(edge_ids, key=erank)),
            )
        )
    for e in graph.edges:
        if e.u in bset and e.v in bset:
            out.append(Bridge((), tuple(sorted((e.u, e.v), key=rank)), (e.eid,)))
    out.sort(key=lambda b: (tuple(map(rank, b.attachments)), tuple(map(rank, b.vertices))))
    return tuple(out)


# --- nonzero terminal path from a cycle and three fans -----------------------


def nonzero_terminal_path_from_fans(
    graph: LabelledGraph,
    cycle_vertices,
    cycle_edges,
    fans: list[PathWitness],
) -> PathWitness:
    """Extract a nonzero terminal-linking path from a nonzero cycle plus three
    disjoint terminal-to-cycle paths, by trying all six endpoint/arc splices."""
    if graph.model != UNDIRECTED:
        raise PreconditionFailed("fan extraction is defined in the undirected model")
    cycle_vertices = tuple(cycle_vertices)
    cycle_edges = tuple(cycle_edges)
    if cycle_vertices[0] != cycle_vertices[-1] or len(set(cycle_vertices[:-1])) != len(cycle_vertices) - 1:
        raise PreconditionFailed("cycle must be a closed simple walk")
    zero = graph.group.zero()
    cw = graph.group.zero()
    for eid in cycle_edges:
        cw = cw + graph.edge(eid).label
    if cw == zero:
        raise PreconditionFailed("cycle weight must be nonzero")
    if len(fans) != 3:
        raise PreconditionFailed("exactly three fans are required")
    cyc_set = set(cycle_vertices[:-1])
    terminals = graph.terminals
    if cyc_set & terminals:
        raise PreconditionFailed("cycle meets the terminal set")
    seen_vertices: set = set()
    oriented = []
    for fan in fans:
        if fan.vertices[0] not in terminals:
            if fan.vertices[-1] in terminals:
                fan = fan.reversed(graph)
            else:
                raise PreconditionFailed("fan lacks a terminal endpoint")
        vs = fan.vertices
        if vs[-1] not in cyc_set:
            raise PreconditionFailed("fan must end on the cycle")
        if set(vs[:-1]) & cyc_set:
            raise PreconditionFailed("fan meets the cycle before its endpoint")
        if any(v in terminals for v in vs[1:]):
            raise PreconditionFailed("fan touches a terminal internally")
        if set(vs) & seen_vertices:
            raise PreconditionFailed("fans are not pairwise disjoint")
        seen_vertices |= set(vs)
        oriented.append(fan)

    ring = list(zip(cycle_vertices[:-1], cycle_edges))  # vertex i, edge i->i+1
    pos = {v: i for i, (v, _) in enumerate(ring)}
    n = len(ring)

    def arc(i: int, j: int, forward: bool) -> tuple[tuple, tuple]:
        verts = [ring[i][0]]
        edges = []
        k = i
        while k != j:
            if forward:
                edges.append(ring[k][1])
                k = (k + 1) % n
            else:
                k = (k - 1) % n
                edges.append(ring[k][1])
            verts.append(ring[k][0])
        return tuple(verts), tuple(edges)

    for a_idx, b_idx in ((0, 1), (0, 2), (1, 2)):
        fa, fb = oriented[a_idx], oriented[b_idx]
        i, j = pos[fa.vertices[-1]], pos[fb.vertices[-1]]
        for forward in (True, False):
            mid_v, mid_e = arc(i, j, forward)
            verts = fa.vertices + mid_v[1:] + tuple(reversed(fb.vertices))[1:]
            edges = fa.edge_ids + mid_e + tuple(reversed(fb.edge_ids))
            w = walk_weight(graph, verts, edges)
            candidate = PathWitness(verts, edges, w)
            if w != zero:
                candidate.validate(graph)
                return candidate
    raise InternalInvariantError(
        "all six splices are zero despite a nonzero cycle and three disjoint fans"
    )
