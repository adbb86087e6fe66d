"""Constructive packing-or-covering for zero-weight paths in oriented graphs.

A forest of subcubic terminal trees is grown greedily to a fixpoint of two
augmentation moves.  The forest is one adjacency map, vertex -> [(edge id,
neighbour)], plus the zero-weight path that started each tree, in creation
order.  Either enough disjoint zero-weight terminal paths come out of the
trees (pigeonhole on leaf counts; extraction takes only a tree whose leaves
are exactly its terminals, and roots it once), or the degree-1/3 vertices of
the forest form a small cover, checked once by `validate_frame_cover`: its
size against the bound, and by exhaustive search that no zero path survives
it.  Works for any finite group, nonabelian included.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DEFAULT_LIMITS,
    InternalInvariantError,
    Limits,
    PreconditionFailed,
)
from .graphs import (
    DIRECTED,
    LabelledGraph,
    PathWitness,
    search_paths,
    search_terminal_paths,
    walk_weight,
)
from .packing import PackOrCover, _verify_packing


@dataclass(frozen=True)
class FrameResult:
    outcome: PackOrCover
    audit: tuple[dict, ...]
    checks: dict | None = None  # validate_frame_cover's report on a cover

    def to_json(self) -> dict:
        out = {"outcome": self.outcome.to_json(), "audit": list(self.audit)}
        if self.checks is not None:
            out["checks"] = self.checks
        return out


def _first_zero_path_disjoint_from(graph: LabelledGraph, blocked, limits: Limits):
    """Lexicographically first zero-weight terminal path avoiding `blocked`.

    The search raises LimitExceeded when nothing was found but a path was
    cut at max_len, since "no candidate" is then uncertifiable.
    """
    zero = graph.group.zero()
    value = zero.value
    for vertices, edge_ids, _ in search_terminal_paths(
        graph, blocked=blocked, member=lambda path, edges, end, w: w == value, limits=limits,
        cut="path length while certifying zero-path absence",
    ):
        return PathWitness(vertices, edge_ids, zero)
    return None


def _first_attach_path(graph: LabelledGraph, sources: list, state: dict, limits: Limits):
    """First path from a free terminal in sources to a target, a degree-2 forest vertex that is
    not a terminal: True in the caller's table, where the terminals and other forest vertices are False.

    Internal vertices avoid both the forest and the terminal set, so gluing
    the path onto its tree keeps the component subcubic with leaves exactly
    the terminals it meets.
    """
    search = search_paths(
        graph, sources, state, lambda *_: True, max_len=limits.max_len, max_count=limits.max_paths,
        cut="path length while searching attachments",
    )
    hit = next(search, None)
    search.close()
    return None if hit is None else hit[:2]


def _add_path(forest: dict, vertices: tuple, edge_ids: tuple) -> None:
    """List each edge of the path at both of its ends."""
    for x, eid, y in zip(vertices, edge_ids, vertices[1:]):
        forest.setdefault(x, []).append((eid, y))
        forest.setdefault(y, []).append((eid, x))


def _rooted(adj: dict, root) -> tuple[list, dict]:
    """Breadth-first order of root's tree, and each vertex's (edge id, parent); None at root."""
    order = [root]
    parent = {root: None}
    for x in order:
        for eid, y in adj[x]:
            if y not in parent:
                parent[y] = (eid, x)
                order.append(y)
    return order, parent


def _validate_forest(graph: LabelledGraph, forest: dict, witnesses: list) -> None:
    """The forest map is a set of subcubic terminal trees, one per stored zero witness."""
    for x, nbrs in forest.items():
        if len(set(nbrs)) != len(nbrs):
            raise InternalInvariantError("an edge is listed twice at one vertex")
        for eid, y in nbrs:
            e = graph.edge(eid) if eid in graph._erank else None
            if e is None or {e.u, e.v} != {x, y} or (eid, x) not in forest.get(y, ()):
                raise InternalInvariantError("forest lists an edge that is not a graph edge listed at both ends")
    zero = graph.group.zero()
    seen: set = set()
    for witness in witnesses:
        witness.validate(graph)
        if witness.weight != zero:
            raise InternalInvariantError("stored witness is not zero weight")
        if witness.vertices[0] not in forest:
            raise InternalInvariantError("stored witness left the forest")
        tree = _rooted(forest, witness.vertices[0])[0]
        if seen.intersection(tree):
            raise InternalInvariantError("two witnesses share a component")
        seen.update(tree)
        if not set(tree).issuperset(witness.vertices):
            raise InternalInvariantError("stored witness left its component")
        degrees = [len(forest[v]) for v in tree]
        if sum(degrees) != 2 * (len(tree) - 1):
            raise InternalInvariantError("component is not a tree")
        if max(degrees) > 3:
            raise InternalInvariantError("component is not subcubic")
        if {v for v, d in zip(tree, degrees) if d == 1} != graph.terminals.intersection(tree):
            raise InternalInvariantError("terminals inside the component are not exactly its leaves")
    if seen != forest.keys():
        raise InternalInvariantError("forest vertex outside every component")


def _zero_path_from(graph: LabelledGraph, adj: dict, v) -> PathWitness:
    """base_zero_path on the tree given by its adjacency map."""
    group = graph.group
    if not group.is_finite:
        raise PreconditionFailed("pigeonhole extraction needs a finite group")
    # the graph reads the root's id, so a float or bool twin of a tree vertex is refused
    if v not in graph or v not in adj or len(adj[v]) == 1:
        raise PreconditionFailed("root must be an internal tree vertex")
    order, parent = _rooted(adj, v)
    leaves = sorted((x for x in order if len(adj[x]) == 1), key=graph._rank.__getitem__)
    need = group.order + 1
    if len(leaves) < need:
        raise PreconditionFailed(f"need {need} leaf paths, found {len(leaves)}")
    chosen = []
    for leaf in leaves[:need]:
        verts, edges = [leaf], []
        while verts[-1] != v:
            eid, up = parent[verts[-1]]
            verts.append(up)
            edges.append(eid)
        chosen.append((tuple(reversed(verts)), tuple(reversed(edges))))
    weights = [walk_weight(graph, vs, es) for vs, es in chosen]
    pair = next(((i, j) for i in range(need) for j in range(i + 1, need) if weights[i] == weights[j]), None)
    if pair is None:
        raise InternalInvariantError("pigeonhole failed over the group order")
    (vi, ei), (vj, ej) = chosen[pair[0]], chosen[pair[1]]
    # strip the common prefix, then splice reversed(i-branch) + j-branch
    k = 0
    while k < min(len(ei), len(ej)) and ei[k] == ej[k]:
        k += 1
    witness = PathWitness.of(graph, vi[k:][::-1] + vj[k + 1 :], ei[k:][::-1] + ej[k:])
    if witness.weight != group.zero():
        raise InternalInvariantError("prefix cancellation did not produce weight zero")
    return witness


def _terminal_tree(graph: LabelledGraph, tree_edges: set) -> tuple[dict, list, dict]:
    """The edges' adjacency map in edge order, their ids read by the graph, rooted at its smallest
    leaf; PreconditionFailed unless the edges form one tree whose leaves are exactly its terminals."""
    adj: dict = {}
    for e in graph.edges_of(tree_edges):
        _add_path(adj, (e.u, e.v), (e.eid,))
    leaves = [v for v, nbrs in adj.items() if len(nbrs) == 1]
    order, parent = _rooted(adj, min(leaves, key=graph._rank.__getitem__)) if leaves else ([], {})
    if len(order) != len(adj) or len(adj) not in (0, len(tree_edges) + 1):
        raise PreconditionFailed("not a terminal tree: the edges do not form one tree")
    if graph.terminals.intersection(adj) != set(leaves):
        raise PreconditionFailed("not a terminal tree: its leaves are not exactly its terminals")
    return adj, order, parent


def base_zero_path(graph: LabelledGraph, tree_edges: set, v) -> PathWitness:
    """Zero-weight terminal path inside a terminal tree, rooted at v.

    PreconditionFailed unless the edges form one tree whose leaves are exactly
    its terminals.  Needs at least |group|+1 leaf paths from the internal
    vertex v, taken in leaf-id order: two of them share a weight by
    pigeonhole, and their symmetric difference is the witness (the common
    prefix cancels on the left even when the group is nonabelian).
    """
    return _zero_path_from(graph, _terminal_tree(graph, tree_edges)[0], v)


def _remove_edge(adj: dict, x, eid, y) -> None:
    """Drop edge eid between x and y, and any end it leaves without edges."""
    for a, b in ((x, y), (y, x)):
        adj[a].remove((eid, b))
        if not adj[a]:
            del adj[a]


def extract_zero_paths(graph: LabelledGraph, tree_edges: set, k: int) -> list[PathWitness]:
    """k pairwise disjoint zero-weight terminal paths from one subcubic terminal tree.

    Rejects any other tree as `base_zero_path` does, then roots it once, at
    its smallest leaf.  While more than one path is due, split at the deepest
    degree-3 vertex (ties to the smallest id) with more than |group| leaves
    below, solve the cut-off subtree by pigeonhole and owe one path fewer.
    A cut leaves no terminal leaf and takes the root only with all the rest,
    so depths stay fixed while degrees and leaf counts only fall: one sweep,
    deepest first, meets the splits in order, and each cut drops non-terminal
    leaves only up its parent chain.  The last path comes from what is left.
    """
    size = graph.group.order
    if k <= 0:
        return []
    rank = graph._rank.__getitem__
    adj, order, parent = _terminal_tree(graph, tree_edges)
    leaves = sum(len(nbrs) == 1 for nbrs in adj.values())
    depth = {}
    for v in order:
        depth[v] = depth[parent[v][1]] + 1 if parent[v] else 0
    sweep = iter(sorted(order[1:], key=lambda v: (-depth[v], rank(v))))
    below: dict = {}  # leaves below each swept vertex
    far_paths: list[PathWitness] = []
    while True:
        if leaves < (2 * k - 1) * size + 1:
            raise PreconditionFailed(
                f"tree has {leaves} leaves; {(2 * k - 1) * size + 1} required for {k} paths"
            )
        if k == 1:
            break
        for split in sweep:
            if split not in adj:
                continue  # cut off or dropped
            eid, up = parent[split]
            nbrs = adj[split]
            below[split] = 1 if len(nbrs) == 1 else sum(below[y] for _, y in nbrs if y != up)
            if len(nbrs) == 3 and below[split] > size:
                break
        else:
            raise InternalInvariantError("no admissible split vertex; contradicts the leaf bound")
        _remove_edge(adj, split, eid, up)
        far = {v: adj.pop(v) for v in _rooted(adj, split)[0]}
        far_paths.append(_zero_path_from(graph, far, min((v for v in far if len(far[v]) >= 2), key=rank)))
        # interior vertices are not terminals: drop each that the cut left a leaf
        while len(adj.get(up, ())) == 1:
            ((eid, y),) = adj[up]
            _remove_edge(adj, up, eid, y)
            up = y
        leaves -= below[split] + (order[0] not in adj)
        k -= 1

    if len(adj) == 2:
        # single-edge tree: only possible demand is over the trivial group
        ((eid, _),) = next(iter(adj.values()))
        e = graph.edge(eid)
        last = PathWitness.of(graph, (e.u, e.v), (eid,))
        if last.weight != graph.group.zero():
            raise InternalInvariantError("single-edge tree with nonzero weight")
    else:
        last = _zero_path_from(graph, adj, min((v for v in adj if len(adj[v]) >= 2), key=rank))
    paths = [last] + far_paths[::-1]
    _verify_packing(paths)
    return paths


def largest_extractable(graph: LabelledGraph, leaf_count: int) -> int:
    """Largest k with leaf_count >= (2k-1)|group|+1."""
    size = graph.group.order
    return (leaf_count - 1 + size) // (2 * size)


def frame_pack_or_cover(
    graph: LabelledGraph, k: int, limits: Limits = DEFAULT_LIMITS, debug: bool = False
) -> FrameResult:
    """Either k disjoint zero-weight terminal paths or a verified small cover.

    Covers contain the degree-1/3 vertices of the grown forest.  One call of
    `validate_frame_cover` checks their size against six times (k-1) times
    the group order and, exhaustively, that no zero path survives their
    deletion; its report is the result's `checks`.
    """
    if graph.model != DIRECTED:
        raise PreconditionFailed("the frame algorithm runs on the oriented model")
    if not graph.group.is_finite:
        raise PreconditionFailed("the frame algorithm needs a finite group")
    if k < 1:
        raise ValueError("k must be positive")

    forest: dict = {}
    witnesses: list[PathWitness] = []
    audit: list[dict] = []
    while (candidate := _first_zero_path_disjoint_from(graph, forest.keys(), limits)) is not None:
        _add_path(forest, candidate.vertices, candidate.edge_ids)
        witnesses.append(candidate)
        audit.append({"move": "new-component", "path": list(candidate.vertices)})
        if debug:
            _validate_forest(graph, forest, witnesses)
    # the forest only grows, so no zero path avoids it again: only attach moves are left, on one table
    terminals = graph.terminals
    state = dict.fromkeys(terminals, False)
    state.update((v, len(nbrs) == 2) for v, nbrs in forest.items() if v not in terminals)
    sources = [a for a in graph._terminal_order if a not in forest]
    while (attach := _first_attach_path(graph, sources, state, limits)) is not None:
        _add_path(forest, *attach)
        # the path's source joins the forest, and only the path's own vertices change degree
        sources.remove(attach[0][0])
        state.update((v, len(forest[v]) == 2) for v in attach[0] if v not in terminals)
        audit.append({"move": "attach", "path": list(attach[0])})
        if debug:
            _validate_forest(graph, forest, witnesses)

    paths = witnesses[:k]
    if len(paths) < k:
        trees = [_rooted(forest, w.vertices[0])[0] for w in witnesses]
        per_tree = [largest_extractable(graph, sum(len(forest[v]) == 1 for v in t)) for t in trees]
        if sum(per_tree) >= k:
            paths = []
            for tree, cap in zip(trees, per_tree):
                take = min(cap, k - len(paths))
                if take > 0:
                    paths.extend(extract_zero_paths(graph, {eid for v in tree for eid, _ in forest[v]}, take))
    if len(paths) == k:
        _validate_packing(graph, paths)
        return FrameResult(PackOrCover("packing", paths=tuple(paths)), tuple(audit))

    cover = frozenset(v for v, nbrs in forest.items() if len(nbrs) in (1, 3))
    checks = validate_frame_cover(graph, k, cover, limits)
    if not checks["bound_ok"]:
        raise InternalInvariantError(f"cover size {len(cover)} breaks the bound {checks['bound']}")
    if not checks["verified_empty"]:
        raise InternalInvariantError("zero path survives the cover; forest was not maximal")
    outcome = PackOrCover("cover", vertices=cover)
    audit.append({"move": "cover", "vertices": sorted(cover, key=graph._rank.__getitem__)})
    return FrameResult(outcome, tuple(audit), checks)


def _validate_packing(graph: LabelledGraph, paths: list[PathWitness]) -> None:
    zero = graph.group.zero()
    for p in paths:
        p.validate(graph)
        if p.weight != zero:
            raise InternalInvariantError("packing contains a nonzero path")
    _verify_packing(paths)


def validate_frame_cover(graph: LabelledGraph, k: int, cover: frozenset, limits: Limits = DEFAULT_LIMITS) -> dict:
    """Check both cover conclusions on a cover of the graph's vertices: the size bound, and no zero path left."""
    # the graph reads every id, so a float or bool twin is refused even beside an unknown id
    if not all([v in graph for v in cover]):
        raise ValueError("cover must consist of vertices")
    bound = 6 * (k - 1) * graph.group.order
    leftover = _first_zero_path_disjoint_from(graph, cover, limits)
    return {
        "bound": bound,
        "size": len(cover),
        "bound_ok": len(cover) < bound or len(cover) == 0,
        "verified_empty": leftover is None,
    }
