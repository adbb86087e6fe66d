"""Group-labelled multigraphs, path witnesses, and the structural operations.

Two labelling models are supported.  In the oriented model every edge carries
a direction and traversing an edge against it negates its label; in the
orientation-free model weights are plain label sums and the group must be
abelian.  Graphs are immutable; mutating operations return new graphs.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

from .errors import (
    DEFAULT_LIMITS,
    InternalInvariantError,
    Limits,
    LimitExceeded,
    NormalizationFailed,
    PreconditionFailed,
)
from .groups import GroupElem, GroupSpec, _bits

DIRECTED = "directed"
UNDIRECTED = "undirected"


# the id types a key passes as they are; ids of any other type go through the key, which checks them
_PLAIN_IDS = frozenset((int, str))


def vertex_key(v, kind: str = "vertex"):
    """Total order over mixed int/str ids, of vertices or of another kind."""
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ValueError(f"{kind} ids must be ints or strings, got {v!r}")
    return (0, v, "") if isinstance(v, int) else (1, 0, v)


_eid_key = functools.partial(vertex_key, kind="edge")


class Edge(NamedTuple):
    eid: int | str
    u: int | str
    v: int | str
    label: GroupElem
    tail: int | str | None = None


class LabelledGraph:
    """Multigraph with a group label per edge and a distinguished terminal set.

    A relabelled graph (`with_labels`, `apply_shifts`, `reduce_weight_to_zero`) keeps its
    parent's vertex, edge and half-edge order and shares its rank tables.
    """

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
            if type(eid) not in _PLAIN_IDS:
                _eid_key(eid)
            if eid in by_id:
                raise ValueError(f"duplicate edge id {eid!r}")
            # read as any vertex id is: by exact type, then looked up
            if u not in self or v not in self:
                raise ValueError(f"edge {eid!r} has an endpoint outside the vertex set")
            if u == v:
                raise ValueError(f"edge {eid!r} is a loop")
            # an element made on this very group (graph_from_json's) is valid already
            if not (isinstance(label, GroupElem) and label.group is group):
                e = Edge(eid, u, v, group.element(label), tail)
            if model == DIRECTED:
                # `in self` only reads the tail's type here: a float or bool twin of an endpoint is refused
                if tail not in (u, v) or tail not in self:
                    raise ValueError(f"edge {eid!r} needs an orientation in the directed model")
            elif tail is not None:
                raise ValueError(f"edge {eid!r} carries an orientation in the undirected model")
            by_id[eid] = e
        ids = _sorted_ids(by_id, _eid_key)
        self.edges = tuple(map(by_id.__getitem__, ids))
        self.terminals = frozenset(terminals)
        if not self.terminals <= rank.keys():
            raise ValueError("terminals must be vertices")
        # key order, the order every terminal search starts in; the sort checks the ids' types
        self._terminal_order = tuple(_sorted_ids(self.terminals, vertex_key))
        self._erank = dict(zip(ids, range(len(ids))))
        self._link()

    def _link(self) -> None:
        """`_steps[v]`, the graph's one adjacency table: (edge id, neighbour, step value) by
        neighbour rank, then edge order, the step being the label's value, negated into a tail;
        `_parallel`: whether two edges join one pair.  No sort: half-edges go to their neighbour's
        bucket in edge order, then the buckets to the rows in rank order, parallel ones adjacent."""
        rank, vertices, neg = self._rank, self.vertices, self.group._neg
        into = [[] for _ in vertices]  # into[y]: (row rank, step) of each half-edge towards y
        for eid, u, v, label, tail in self.edges:
            x = label.value
            into[rank[v]].append((rank[u], (eid, v, neg(x) if v == tail else x)))
            into[rank[u]].append((rank[v], (eid, u, neg(x) if u == tail else x)))
        steps = [[] for _ in vertices]
        last = [-1] * len(vertices)  # the neighbour rank each row took last
        parallel = False
        for y, bucket in enumerate(into):
            for x, step in bucket:
                parallel |= last[x] == y
                last[x] = y
                steps[x].append(step)
        self._parallel = parallel
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

    # --- basic accessors: an id is read by exact type, then looked up ----

    def edge(self, eid) -> Edge:
        if type(eid) not in _PLAIN_IDS:
            _eid_key(eid)
        try:
            return self.edges[self._erank[eid]]
        except KeyError:
            raise ValueError(f"unknown edge {eid!r}") from None

    def edges_of(self, eids) -> list[Edge]:
        """The edges of a collection of ids in edge order, read in key order, so that the id an
        error names does not depend on the collection's own order."""
        return [self.edge(eid) for eid in _sorted_ids(eids, _eid_key)]

    def __contains__(self, v) -> bool:
        if type(v) not in _PLAIN_IDS:
            vertex_key(v)
        return v in self._rank

    # --- derived graphs ---------------------------------------------------

    def without_vertices(self, removed) -> "LabelledGraph":
        """The induced subgraph on the other vertices.  The package does not call it; it stays
        a method while the benchmark tracer counts its calls by this name."""
        removed = set(removed)
        keep = [v for v in self.vertices if v not in removed]
        edges = [e for e in self.edges if e.u not in removed and e.v not in removed]
        return LabelledGraph(self.group, self.model, keep, edges, self.terminals - removed)

    def with_labels(self, relabel: Callable[[Edge], GroupElem]) -> "LabelledGraph":
        """The same graph with each edge's label replaced by relabel(edge), checked on the group.

        The relabelled graph keeps this graph's vertex, edge and half-edge order and shares
        its rank tables; only the edges and the step values are new.
        """
        element = self.group.element
        return self._revalued([element(relabel(e)).value for e in self.edges])

    def _revalued(self, values) -> "LabelledGraph":
        """This graph with edge i's label value replaced by values[i], a valid element value.

        The vertices, terminals (and their order) and rank tables are shared and `_link` builds
        the step table anew, in the same half-edge order; equal values share one element.
        """
        group = self.group
        cache = {}
        out = copy.copy(self)
        out.edges = tuple(
            Edge(eid, u, v, cache[x] if x in cache else cache.setdefault(x, GroupElem(group, x)), tail)
            for (eid, u, v, _, tail), x in zip(self.edges, values)
        )
        out._link()
        return out

    # --- connectivity helpers --------------------------------------------

    def is_three_connected(self) -> bool:
        """At least 4 vertices and every pair inseparable (Whitney)."""
        n = len(self.vertices)
        return n >= 4 and all(m | 1 << i == (1 << n) - 1 for i, m in enumerate(_inseparable_masks(self)))

    def to_json(self) -> dict:
        out = {
            "group": self.group.to_json(),
            "model": self.model,
            "vertices": list(self.vertices),
            "A": list(self._terminal_order),
            "edges": [],
        }
        for e in self.edges:
            entry = {"id": e.eid, "u": e.u, "v": e.v, "label": e.label.to_json()}
            if self.model == DIRECTED:
                entry["tail"] = e.tail
            out["edges"].append(entry)
        return out


def _sorted_ids(ids, key) -> list:
    """ids in key order: all plain ints or all strings sort as themselves (the key orders each
    kind so); mixed or other ids go through key, which checks them."""
    ids = list(ids)
    kinds = set(map(type, ids))
    return sorted(ids) if len(kinds) == 1 and kinds <= _PLAIN_IDS else sorted(ids, key=key)


@dataclass(frozen=True)
class PathWitness:
    """A concrete path with its computed weight; the universal certificate."""

    vertices: tuple
    edge_ids: tuple
    weight: GroupElem

    @classmethod
    def of(cls, graph: LabelledGraph, vertices, edge_ids, as_terminal_path: bool = True) -> "PathWitness":
        """The witness of a walk the caller built, weighed once by `walk_weight` and checked as by `validate`."""
        vertices, edge_ids = tuple(vertices), tuple(edge_ids)
        witness = cls(vertices, edge_ids, walk_weight(graph, vertices, edge_ids))
        witness._check(graph, as_terminal_path, weigh=False)
        return witness

    @property
    def trivial(self) -> bool:
        """One vertex and no edges: the trivial path."""
        return not self.edge_ids

    @property
    def endpoints(self) -> tuple:
        return (self.vertices[0], self.vertices[-1])

    def reversed(self, graph: LabelledGraph) -> "PathWitness":
        """The path from its other end: the weight is negated in the oriented model, kept in the orientation-free one."""
        weight = -self.weight if graph.model == DIRECTED else self.weight
        return PathWitness(self.vertices[::-1], self.edge_ids[::-1], weight)

    def validate(self, graph: LabelledGraph, as_terminal_path: bool = True) -> None:
        """Re-check simplicity, terminal pattern, and the stored weight."""
        self._check(graph, as_terminal_path, weigh=True)

    def _check(self, graph: LabelledGraph, as_terminal_path: bool, weigh: bool) -> None:
        if len(self.vertices) != len(self.edge_ids) + 1:
            raise InternalInvariantError("malformed witness sequence")
        if len(set(self.vertices)) != len(self.vertices):
            raise InternalInvariantError("witness revisits a vertex")
        if weigh and walk_weight(graph, self.vertices, self.edge_ids) != self.weight:
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


def _check_input(graph: LabelledGraph, witness: PathWitness, what: str, as_terminal_path: bool = True) -> None:
    """`witness.validate` on a witness the caller gave, any failure a PreconditionFailed naming what it is."""
    try:
        witness.validate(graph, as_terminal_path)
    except (InternalInvariantError, ValueError) as exc:
        raise PreconditionFailed(f"{what}: {exc}") from None


def walk_weight(graph: LabelledGraph, vertices, edge_ids) -> GroupElem:
    """Weight of a walk given as alternating vertex and edge-id sequences.

    The graph reads the ids.  Errors come in this order: alternation, then
    vertices (an unknown one past the first fails its edge's join), then edges
    in walk order.  Label values are summed left to right with `group._add`
    (meaningful for nonabelian groups); a label is negated when the walk enters
    the edge's tail, which only directed edges have, as in the step table.
    """
    vertices = tuple(vertices)
    edge_ids = tuple(edge_ids)
    if len(vertices) != len(edge_ids) + 1 or not vertices:
        raise ValueError("walk must alternate vertices and edges")
    if not [v in graph for v in vertices][0]:
        raise ValueError(f"unknown vertex {vertices[0]!r}")
    group = graph.group
    add, neg = group._add, group._neg
    acc = group._zero
    for at, eid, nxt in zip(vertices, edge_ids, vertices[1:]):
        _, u, v, label, tail = graph.edge(eid)
        if {at, nxt} != {u, v}:
            raise ValueError(f"edge {eid!r} does not join {at!r} and {nxt!r}")
        acc = add(acc, neg(label.value) if nxt == tail else label.value)
    return GroupElem(group, acc)


def search_paths(
    graph: LabelledGraph,
    sources,
    state: dict,
    accept: Callable[[list, list, object, object], bool],
    *,
    max_len: int,
    max_count: int,
    cut: str,
    member: Callable[[list, list, object, int], bool] | None = None,
) -> Iterator[tuple[tuple, tuple, int]]:
    """Simple paths from each source, in turn, that end at their first stop vertex.

    Depth-first in adjacency order, on an explicit stack.  The caller's table
    state marks a stop vertex True and a forbidden one False; a free vertex has
    no entry.  A free neighbour extends the path; a stop one ends it, and the
    path counts when accept(prefix vertices, prefix edge ids, end, last edge
    id) holds; any other is skipped.  A counted path is yielded as (vertices,
    edge ids, weight value) unless member(prefix vertices, prefix edge ids,
    end, weight value) is given and fails; a non-member never becomes a tuple.
    The prefix lists are the search's own, not to be kept or changed.  The
    weight is an element value, summed left to right with `group._add` over the
    graph's step table as vertices are pushed; a step is the label's value,
    negated when the edge is traversed against its orientation in the directed
    model.

    The search marks its path False in the table (a source keeps its mark)
    and takes the marks off when it ends, is closed or raises; only a finished
    source stays False, so a path between two sources is found once.

    The search owns its limits.  Counted paths beyond max_count raise
    LimitExceeded("enumerated paths", max_count), members or not.  Paths
    longer than max_len edges are cut, and a search that runs to its end
    after cutting one raises LimitExceeded(cut, max_len), since its results
    may be incomplete; a caller that stops at its first hit never reaches
    that end.  max_len must be at least 1, as `Limits` keeps it: a source
    then starts with budget max_len, and a vertex is pushed only while one
    more edge still fits after it, so every path has budget at least 1 left
    for its stop edge and only interior extensions are cut.
    """
    add = graph.group._add
    steps = graph._steps
    zero = graph.group._zero
    mark_of = state.get
    found = 0
    truncated = False
    path: list = []
    try:
        for source in sources:
            prior = mark_of(source)
            state.setdefault(source, False)
            path, edges = [source], []
            frames = [(iter(steps[source]), zero)]  # (row iterator, prefix weight) per path vertex
            while frames:
                row, weight = frames[-1]
                budget = max_len - len(edges)
                for eid, nxt, step in row:
                    mark = mark_of(nxt)
                    if mark is None:
                        # an interior extension needs one edge now and at least one more to finish
                        if budget < 2:
                            truncated = True
                            continue
                        path.append(nxt)
                        edges.append(eid)
                        state[nxt] = False
                        frames.append((iter(steps[nxt]), add(weight, step)))
                        break
                    if not mark:
                        continue
                    if accept(path, edges, nxt, eid):
                        found += 1
                        if found > max_count:
                            raise LimitExceeded("enumerated paths", max_count)
                        end = add(weight, step)
                        if member is None or member(path, edges, nxt, end):
                            yield tuple(path) + (nxt,), tuple(edges) + (eid,), end
                else:
                    frames.pop()
                    if edges:
                        del state[path.pop()]
                        edges.pop()
            state[path.pop()] = False
    finally:
        if path:  # an unfinished source: its search's marks come off, and its own mark stays if it had one
            for v in path[0 if prior is None else 1:]:
                del state[v]
    if truncated:
        raise LimitExceeded(cut, max_len)


def search_terminal_paths(graph: LabelledGraph, *, blocked=frozenset(), member=None, limits: Limits, cut: str):
    """Each terminal path that avoids blocked, once, from its smaller end, as search_paths yields it.

    The terminals start their searches in vertex order and the largest starts
    none, so a cut at max_len raises only on a path that leaves a smaller
    terminal, which every terminal path does.  max_paths counts every terminal
    path met, member or not.
    """
    sources = [a for a in graph._terminal_order if a not in blocked]
    state = {**dict.fromkeys(graph.terminals, True), **dict.fromkeys(blocked, False)}
    return search_paths(
        graph, sources[:-1], state, lambda path, edges, end, eid: end != path[0],
        max_len=limits.max_len, max_count=limits.max_paths, cut=cut, member=member,
    )


def enumerate_terminal_paths(
    graph: LabelledGraph,
    *,
    weight: GroupElem | None = None,
    keep: Callable[[list, list, object, int], bool] | None = None,
    limits: Limits = DEFAULT_LIMITS,
) -> tuple[PathWitness, ...]:
    """Exhaustively enumerate terminal-linking paths, optionally filtered.

    One filter at most: weight selects paths of one weight (in the directed
    model a path matches when either traversal direction attains it, which
    only the enumeration can apply); keep(prefix vertices, prefix edge ids,
    end, weight value) selects the paths it holds for.  The filter is the
    kernel's member test, so a path it drops never leaves the kernel, though
    it still counts toward max_paths.  Members of one weight share one
    element.  Results come in key order (vertex ranks, then edge ranks), the
    order the kernel meets them in: sources and neighbours run by rank, and
    two paths of a simple graph differ in their vertices.  Only parallel
    edges and a weight member kept reversed make a sort necessary.
    """
    if weight is not None and keep is not None:
        raise ValueError("choose at most one filter")
    group = graph.group
    member = keep
    if weight is not None:
        weight = group.element(weight)
        target = weight.value
        # the value a member kept reversed has as met
        back = group._neg(target) if graph.model == DIRECTED else target
        member = lambda path, edges, end, w: w == target or w == back
    elems: dict = {}
    unordered = graph._parallel
    out = []
    for vertices, edge_ids, w in search_terminal_paths(
        graph, member=member, limits=limits, cut="path length during exhaustive enumeration"
    ):
        if weight is None:
            if w not in elems:
                elems[w] = GroupElem(group, w)
            out.append(PathWitness(vertices, edge_ids, elems[w]))
        elif w == target:
            out.append(PathWitness(vertices, edge_ids, weight))
        else:
            out.append(PathWitness(tuple(reversed(vertices)), tuple(reversed(edge_ids)), weight))
            unordered = True
    if unordered:
        rank, erank = graph._rank, graph._erank
        out.sort(key=lambda p: ([rank[v] for v in p.vertices], [erank[e] for e in p.edge_ids]))
    return tuple(out)


def iter_simple_cycles(
    graph: LabelledGraph, limits: Limits = DEFAULT_LIMITS
) -> Iterator[tuple[tuple, tuple, int]]:
    """All simple cycles (vertices, edge ids, weight value), each edge set exactly once.

    A cycle is closed at its smallest vertex and traversed in the first
    direction the search meets; cycles of two parallel edges are included.
    The weight is the value of that traversal's walk weight, so in the
    orientation-free model it is the plain label sum.  Past limits.cycle_cap
    cycles it raises LimitExceeded.
    """
    cycle_cap, kept = limits.cycle_cap, 0

    def closes(path: list, edges: list, end, eid) -> bool:
        nonlocal kept
        # the search meets each cycle twice, first leaving along its edge earlier in the start's
        # row: keep that traversal, which also rejects returning along the first edge
        if place[eid] <= place[edges[0]]:
            return False
        kept += 1
        # the cap counts cycles over all starts, not per search
        if kept > cycle_cap:
            raise LimitExceeded("enumerated simple cycles", cycle_cap)
        return True

    state: dict = {}  # each start stops its own search, which leaves it forbidden to the later ones
    for start in graph.vertices:
        place = {eid: i for i, (eid, _, _) in enumerate(graph._steps[start])}  # edge id -> row place
        state[start] = True
        # a simple cycle has at most n edges, so max_len cuts none
        yield from search_paths(
            graph, (start,), state, closes, max_len=len(graph.vertices), max_count=cycle_cap, cut="cycle length",
        )


def _potential_certificate(graph: LabelledGraph) -> dict | None:
    """Per-vertex involutions phi with label(uv) = phi(u)+phi(v), if they exist.

    Such a certificate exhibits the labelling as a shift of the all-zero one,
    which forces every cycle weight to vanish.  It runs on element values: in
    the orientation-free model of its callers a step is the label's value.
    """
    group = graph.group
    add, neg, steps = group._add, group._neg, graph._steps
    zero = group._zero
    phi: dict = {}
    # vertices are sorted, so each root is the smallest vertex of its component
    for root in graph.vertices:
        if root in phi:
            continue
        phi[root] = zero
        stack = [root]
        while stack:
            x = stack.pop()
            for _, y, step in steps[x]:
                if y in phi:
                    continue
                val = add(step, neg(phi[x]))
                if add(val, val) != zero:
                    return None
                phi[y] = val
                stack.append(y)
    for _, u, v, label, _ in graph.edges:
        if add(phi[u], phi[v]) != label.value:
            return None
    return {v: GroupElem(group, val) for v, val in phi.items()}


def is_gamma_bipartite(graph: LabelledGraph, limits: Limits = DEFAULT_LIMITS) -> bool:
    """Whether every simple cycle has weight zero (orientation-free model): an involution
    potential proves it, or else a scan of at most limits.cycle_cap cycles decides."""
    if graph.model != UNDIRECTED:
        raise PreconditionFailed("cycle weights are orientation-free only in the undirected model")
    if _potential_certificate(graph) is not None:
        return True
    zero = graph.group._zero
    return all(w == zero for _, _, w in iter_simple_cycles(graph, limits))


def normalize_to_zero(
    graph: LabelledGraph, limits: Limits = DEFAULT_LIMITS
) -> tuple[list[tuple[object, GroupElem]], LabelledGraph]:
    """Shift sequence turning a 3-connected all-zero-cycle labelling into all-zero.

    Verifies both preconditions; the shifts are the involution potential of
    `_potential_certificate`, whose root vertex is fixed at zero and which is
    checked on every edge.  3-connectivity makes it exist whenever every
    cycle is zero; else a scan of at most limits.cycle_cap cycles finds a nonzero one.
    """
    if graph.model != UNDIRECTED:
        raise PreconditionFailed("normalization applies to the orientation-free model")
    if not graph.is_three_connected():
        raise PreconditionFailed("graph is not 3-connected")
    phi = _potential_certificate(graph)
    zero = graph.group.zero()
    if phi is None:
        if any(w != zero.value for _, _, w in iter_simple_cycles(graph, limits)):
            raise PreconditionFailed("labelling has a nonzero cycle")
        raise NormalizationFailed("a 3-connected zero-cycle labelling has no involution potential")
    shifts = [(v, phi[v]) for v in graph.vertices if phi[v] != zero]
    return shifts, apply_shifts(graph, shifts)


def apply_shifts(graph: LabelledGraph, shifts) -> LabelledGraph:
    """Apply a sequence of shifts (vertex, g) in one relabelling pass.

    Each shift is checked as a single shift would be: the orientation-free
    model, g + g = 0 and a vertex the graph knows.  The model's group is abelian, so
    the shifts at a vertex can be summed first.
    """
    if graph.model != UNDIRECTED:
        raise PreconditionFailed("shifting is defined in the orientation-free model")
    group = graph.group
    add, zero = group._add, group._zero
    total: dict = {}
    for v, g in shifts:
        g = group.element(g)
        if add(g.value, g.value) != zero:
            raise PreconditionFailed(f"shift value must satisfy g+g=0, got {g!r}")
        if v not in graph:
            raise ValueError(f"unknown vertex {v!r}")
        total[v] = add(total.get(v, zero), g.value)
    return graph._revalued(
        [add(add(label.value, total.get(u, zero)), total.get(v, zero)) for _, u, v, label, _ in graph.edges]
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
    nbrs = [[rank[y] for _, y, _ in graph._steps[v]] for v in graph.vertices]
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
    are not neighbours of the vertex of P | X with most neighbours in P.  The
    branches wait on an explicit stack, pushed in reverse, so a clique as
    large as the graph costs no recursion and the cliques come out in
    depth-first order.
    """
    stack = [(0, (1 << len(nbrs)) - 1, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p and not x:
            yield r
            continue
        pivot = max(_bits(p | x), key=lambda u: (p & nbrs[u]).bit_count())
        branches = []
        for v in _bits(p & ~nbrs[pivot]):
            branches.append((r | 1 << v, p & nbrs[v], x & nbrs[v]))
            p &= ~(1 << v)
            x |= 1 << v
        stack.extend(reversed(branches))


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
    blocks.sort(key=lambda b: tuple(map(graph._rank.__getitem__, b)))
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

    Such a path lies in one bridge on {a, b}: a pair joined only by chords
    (edges of the block) reads its paths from a's row of the step table, any
    other pair takes one search confined to its bridges.  A pair stops once it
    has every element of the group; max_paths counts the paths over all pairs.
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
        # the chords as the search would yield them
        if len(allowed) == 2:
            paths = (((a, b), (eid,), step) for eid, y, step in graph._steps[a] if y == b)
        else:
            paths = search_paths(
                graph, (a,), {**dict.fromkeys(vertices - allowed, False), b: True}, lambda *_: True,
                max_len=limits.max_len, max_count=limits.max_paths,
                cut="path length during block-weight enumeration",
            )
        weights: set[int] = set()
        for _, _, w in paths:
            found += 1
            if found > limits.max_paths:
                raise LimitExceeded("enumerated paths", limits.max_paths)
            weights.add(w)
            if len(weights) == group.order:
                break
        out += ((a, b, g) for g in sorted((GroupElem(group, w) for w in weights), key=group.elem_sort_key))
    return out


def _bridges(graph: LabelledGraph, bset: set) -> tuple[Bridge, ...]:
    """Block bset's bridges: each component's vertices, attachments and edges in one sweep."""
    # vertices and edges are stored sorted, so their index ranks order them as their keys do
    rank, erank = graph._rank.__getitem__, graph._erank.__getitem__
    out = []
    seen = set(bset)
    for start in graph.vertices:
        if start in seen:
            continue
        seen.add(start)
        comp, attach, edge_ids, stack = [start], set(), set(), [start]
        while stack:
            for eid, y, _ in graph._steps[stack.pop()]:
                edge_ids.add(eid)
                if y in bset:
                    attach.add(y)
                elif y not in seen:
                    seen.add(y)
                    comp.append(y)
                    stack.append(y)
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
    if walk_weight(graph, cycle_vertices, cycle_edges) == zero:
        raise PreconditionFailed("cycle weight must be nonzero")
    if len(fans) != 3:
        raise PreconditionFailed("exactly three fans are required")
    cyc_set = set(cycle_vertices[:-1])
    terminals = graph.terminals
    if cyc_set & terminals:
        raise PreconditionFailed("cycle meets the terminal set")
    seen_vertices: set = set()
    oriented = []
    for idx, fan in enumerate(fans):
        _check_input(graph, fan, f"fan {idx}", as_terminal_path=False)
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

    # ring edge i joins ring vertices i and i+1; on the ring twice over, the arc
    # from i forward to j is one slice, and the arc back from j is its reverse
    n = len(cycle_edges)
    ring_v, ring_e = cycle_vertices[:-1] * 2, cycle_edges * 2
    pos = {v: i for i, v in enumerate(cycle_vertices[:-1])}

    def arc(i: int, j: int) -> tuple[tuple, tuple]:
        j += n if j < i else 0
        return ring_v[i : j + 1], ring_e[i:j]

    for a_idx, b_idx in ((0, 1), (0, 2), (1, 2)):
        fa, fb = oriented[a_idx], oriented[b_idx]
        i, j = pos[fa.vertices[-1]], pos[fb.vertices[-1]]
        for mid_v, mid_e in (arc(i, j), [half[::-1] for half in arc(j, i)]):
            candidate = PathWitness.of(
                graph, fa.vertices + mid_v[1:] + fb.vertices[-2::-1], fa.edge_ids + mid_e + fb.edge_ids[::-1]
            )
            if candidate.weight != zero:
                return candidate
    raise InternalInvariantError(
        "all six splices are zero despite a nonzero cycle and three disjoint fans"
    )
