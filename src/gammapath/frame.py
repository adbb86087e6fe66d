"""Constructive packing-or-covering for zero-weight paths in oriented graphs.

A forest of subcubic terminal trees is grown greedily to a fixpoint of two
augmentation moves.  The forest is one adjacency map, vertex -> [(edge id,
neighbour)], plus the zero-weight path that started each tree, in creation
order; degrees, the forest's vertex set and each tree's vertices are read
from the map.  Either enough disjoint zero-weight terminal paths come out of
the trees (pigeonhole on leaf counts), or the degree-1/3 vertices of the
forest form a small cover, checked once by `validate_frame_cover`: its size
against the bound, and by exhaustive search that no zero path survives it.
Works for any finite group, nonabelian included.
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
    vertex_key,
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
    for vertices, edge_ids, w in search_terminal_paths(
        graph, graph.terminals, blocked=blocked, limits=limits,
        cut="path length while certifying zero-path absence",
    ):
        if w == zero.value:
            return PathWitness(vertices, edge_ids, zero)
    return None


def _first_attach_path(graph: LabelledGraph, forest: dict, limits: Limits):
    """First path from a free terminal to a degree-2 forest vertex.

    Internal vertices avoid both the forest and the terminal set, so gluing
    the path onto its tree keeps the component subcubic with leaves exactly
    the terminals it meets.
    """
    terminals = graph.terminals
    targets = {v for v, nbrs in forest.items() if len(nbrs) == 2 and v not in terminals}
    sources = [a for a in sorted(terminals, key=vertex_key) if a not in forest]
    for vertices, edge_ids, _ in search_paths(
        graph, sources, targets, lambda *_: True,
        forbidden=terminals.union(forest) - targets,
        max_len=limits.max_len, max_count=limits.max_paths,
        cut="path length while searching attachments",
    ):
        return vertices, edge_ids
    return None


def _add_path(forest: dict, vertices: tuple, edge_ids: tuple) -> None:
    """List each edge of the path at both of its ends."""
    for x, eid, y in zip(vertices, edge_ids, vertices[1:]):
        forest.setdefault(x, []).append((eid, y))
        forest.setdefault(y, []).append((eid, x))


def _tree_adjacency(graph: LabelledGraph, edge_ids: set) -> dict:
    """Each vertex's (edge id, neighbour) pairs, in the graph's edge order."""
    adj: dict = {}
    for eid in sorted(edge_ids, key=graph._erank.__getitem__):
        e = graph.edge(eid)
        adj.setdefault(e.u, []).append((eid, e.v))
        adj.setdefault(e.v, []).append((eid, e.u))
    return adj


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
            e = graph._by_id.get(eid)
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
    if v not in adj or len(adj[v]) == 1:
        raise PreconditionFailed("root must be an internal tree vertex")
    order, parent = _rooted(adj, v)
    leaves = sorted((x for x in order if len(adj[x]) == 1), key=vertex_key)
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
    branch_i_v, branch_i_e = vi[k:], ei[k:]
    branch_j_v, branch_j_e = vj[k:], ej[k:]
    verts = tuple(reversed(branch_i_v)) + branch_j_v[1:]
    edges = tuple(reversed(branch_i_e)) + branch_j_e
    w = walk_weight(graph, verts, edges)
    witness = PathWitness(verts, edges, w)
    if w != group.zero():
        raise InternalInvariantError("prefix cancellation did not produce weight zero")
    witness.validate(graph)
    return witness


def base_zero_path(graph: LabelledGraph, tree_edges: set, v) -> PathWitness:
    """Zero-weight terminal path inside a subcubic terminal tree, rooted at v.

    Needs at least |group|+1 leaf paths from the internal vertex v, taken in
    leaf-id order: two of them share a weight by pigeonhole, and their
    symmetric difference is the witness (the common prefix cancels on the
    left even when the group is nonabelian).
    """
    return _zero_path_from(graph, _tree_adjacency(graph, tree_edges), v)


def _remove_edge(adj: dict, x, eid, y) -> None:
    """Drop edge eid between x and y, and any end it leaves without edges."""
    for a, b in ((x, y), (y, x)):
        adj[a].remove((eid, b))
        if not adj[a]:
            del adj[a]


def _prune_to_terminal_tree(adj: dict, terminals) -> None:
    """Repeatedly drop non-terminal leaves, in place: the largest sub-tree whose
    leaves are all terminals.  An edge goes exactly when one of its sides holds
    no terminal, so the order of the drops does not change the result."""
    stack = [v for v, nbrs in adj.items() if len(nbrs) == 1 and v not in terminals]
    while stack:
        v = stack.pop()
        if v not in adj:
            continue  # its one edge went with its neighbour's drop
        ((eid, y),) = adj[v]
        _remove_edge(adj, v, eid, y)
        if len(adj.get(y, ())) == 1 and y not in terminals:
            stack.append(y)


def extract_zero_paths(graph: LabelledGraph, tree_edges: set, k: int) -> list[PathWitness]:
    """k pairwise disjoint zero-weight terminal paths from one subcubic tree.

    While more than one path is due: root the tree at its smallest leaf,
    split at the deepest degree-3 vertex (ties to the smallest id) with more
    than |group| leaves below it, cut its subtree off and solve it by
    pigeonhole, and go on with the rest of the tree, pruned to its terminal
    leaves, owing one path fewer.  The last path comes from what is left.
    The tree's adjacency map is built once and cut and pruned in place.
    """
    size = graph.group.order
    if k <= 0:
        return []
    adj = _tree_adjacency(graph, tree_edges)
    far_paths: list[PathWitness] = []
    while True:
        leaves = [v for v, nbrs in adj.items() if len(nbrs) == 1]
        if len(leaves) < (2 * k - 1) * size + 1:
            raise PreconditionFailed(
                f"tree has {len(leaves)} leaves; {(2 * k - 1) * size + 1} required for {k} paths"
            )
        if k == 1:
            break
        anchor = min(leaves, key=vertex_key)
        order, parent = _rooted(adj, anchor)
        depth = {anchor: 0}
        for v in order[1:]:
            depth[v] = depth[parent[v][1]] + 1
        below = dict.fromkeys(order, 0)
        for v in reversed(order[1:]):
            if len(adj[v]) == 1:
                below[v] = 1
            below[parent[v][1]] += below[v]
        splits = [v for v in order if len(adj[v]) == 3 and below[v] > size]
        if not splits:
            raise InternalInvariantError("no admissible split vertex; contradicts the leaf bound")
        split = min(splits, key=lambda v: (-depth[v], vertex_key(v)))
        eid, up = parent[split]
        _remove_edge(adj, split, eid, up)
        far = {v: adj.pop(v) for v in _rooted(adj, split)[0]}
        far_paths.append(_zero_path_from(graph, far, min((v for v in far if len(far[v]) >= 2), key=vertex_key)))
        _prune_to_terminal_tree(adj, graph.terminals)
        k -= 1

    if len(adj) == 2:
        # single-edge tree: only possible demand is over the trivial group
        ((eid, _),) = next(iter(adj.values()))
        e = graph.edge(eid)
        w = walk_weight(graph, (e.u, e.v), (e.eid,))
        if w != graph.group.zero():
            raise InternalInvariantError("single-edge tree with nonzero weight")
        last = PathWitness((e.u, e.v), (e.eid,), w)
        last.validate(graph)
    else:
        last = _zero_path_from(graph, adj, min((v for v in adj if len(adj[v]) >= 2), key=vertex_key))
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
    # the forest only grows, so no zero path avoids it again: only attach moves are left
    while (attach := _first_attach_path(graph, forest, limits)) is not None:
        _add_path(forest, *attach)
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
        _validate_packing(graph, paths, k)
        return FrameResult(PackOrCover("packing", paths=tuple(paths)), tuple(audit))

    cover = frozenset(v for v, nbrs in forest.items() if len(nbrs) in (1, 3))
    checks = validate_frame_cover(graph, k, cover, limits)
    if not checks["bound_ok"]:
        raise InternalInvariantError(f"cover size {len(cover)} breaks the bound {checks['bound']}")
    if not checks["verified_empty"]:
        raise InternalInvariantError("zero path survives the cover; forest was not maximal")
    outcome = PackOrCover("cover", vertices=cover)
    audit.append({"move": "cover", "vertices": sorted(cover, key=vertex_key)})
    return FrameResult(outcome, tuple(audit), checks)


def _validate_packing(graph: LabelledGraph, paths: list[PathWitness], k: int) -> None:
    if len(paths) != k:
        raise InternalInvariantError("packing has the wrong size")
    zero = graph.group.zero()
    for p in paths:
        p.validate(graph)
        if p.weight != zero:
            raise InternalInvariantError("packing contains a nonzero path")
    _verify_packing(paths)


def validate_frame_cover(graph: LabelledGraph, k: int, cover: frozenset, limits: Limits = DEFAULT_LIMITS) -> dict:
    """Check both cover conclusions: the size bound, and no zero path left after deleting the cover."""
    bound = 6 * (k - 1) * graph.group.order
    leftover = _first_zero_path_disjoint_from(graph, cover, limits)
    return {
        "bound": bound,
        "size": len(cover),
        "bound_ok": len(cover) < bound or len(cover) == 0,
        "verified_empty": leftover is None,
    }
