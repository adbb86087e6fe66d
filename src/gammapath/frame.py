"""Constructive packing-or-covering for zero-weight paths in oriented graphs.

A forest of subcubic terminal trees is grown greedily to a fixpoint of two
augmentation moves; either enough disjoint zero-weight terminal paths come
out of the trees (pigeonhole on leaf counts), or the degree-1/3 vertices of
the forest form a small cover whose removal provably kills every zero path.
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


@dataclass
class TerminalTree:
    """One forest component: a subcubic tree meeting the terminals in its leaves."""

    vertices: set
    edge_ids: set
    witness: PathWitness

    def leaves(self, degree: dict) -> list:
        """The tree's degree-1 vertices, read from the forest's degree map."""
        return sorted((v for v in self.vertices if degree[v] == 1), key=vertex_key)


@dataclass(frozen=True)
class FrameResult:
    outcome: PackOrCover
    audit: tuple[dict, ...]

    def to_json(self) -> dict:
        return {"outcome": self.outcome.to_json(), "audit": list(self.audit)}


def _first_zero_path_disjoint_from(graph: LabelledGraph, blocked: set | frozenset, limits: Limits):
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


def _first_attach_path(graph: LabelledGraph, forest_vertices: set, degree: dict, limits: Limits):
    """First path from a free terminal to a degree-2 forest vertex.

    Internal vertices avoid both the forest and the terminal set, so gluing
    the path onto its tree keeps the component subcubic with leaves exactly
    the terminals it meets.
    """
    terminals = graph.terminals
    targets = {v for v in forest_vertices if degree.get(v) == 2 and v not in terminals}
    sources = [a for a in sorted(terminals, key=vertex_key) if a not in forest_vertices]
    for vertices, edge_ids, _ in search_paths(
        graph, sources, targets, lambda *_: True,
        forbidden=(terminals | forest_vertices) - targets,
        max_len=limits.max_len, max_count=limits.max_paths,
        cut="path length while searching attachments",
    ):
        return vertices, edge_ids
    return None


def _tree_adjacency(graph: LabelledGraph, edge_ids: set) -> dict:
    """Each vertex's (edge id, neighbour) pairs, in the graph's edge order."""
    adj: dict = {}
    for eid in sorted(edge_ids, key=graph._erank.__getitem__):
        e = graph.edge(eid)
        adj.setdefault(e.u, []).append((eid, e.v))
        adj.setdefault(e.v, []).append((eid, e.u))
    return adj


def _validate_tree(graph: LabelledGraph, tree: TerminalTree, degree: dict) -> None:
    adj = _tree_adjacency(graph, tree.edge_ids)
    if set(adj) != tree.vertices:
        raise InternalInvariantError("component vertex set out of sync")
    if len(tree.edge_ids) != len(tree.vertices) - 1:
        raise InternalInvariantError("component is not a tree")
    for v, nbrs in adj.items():
        if len(nbrs) > 3:
            raise InternalInvariantError("component is not subcubic")
        if degree.get(v) != len(nbrs):
            raise InternalInvariantError("cached degree out of sync")
    leaves = {v for v, nbrs in adj.items() if len(nbrs) == 1}
    if tree.vertices & graph.terminals != leaves:
        raise InternalInvariantError("terminals inside the component are not exactly its leaves")
    tree.witness.validate(graph)
    if tree.witness.weight != graph.group.zero():
        raise InternalInvariantError("stored witness is not zero weight")
    if not set(tree.witness.vertices) <= tree.vertices:
        raise InternalInvariantError("stored witness left its component")


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


def base_zero_path(graph: LabelledGraph, tree_edges: set, v) -> PathWitness:
    """Zero-weight terminal path inside a subcubic terminal tree, rooted at v.

    Needs at least |group|+1 leaf paths from the internal vertex v, taken in
    leaf-id order: two of them share a weight by pigeonhole, and their
    symmetric difference is the witness (the common prefix cancels on the
    left even when the group is nonabelian).
    """
    group = graph.group
    if not group.is_finite:
        raise PreconditionFailed("pigeonhole extraction needs a finite group")
    adj = _tree_adjacency(graph, tree_edges)
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
    pair = None
    for i in range(need):
        for j in range(i + 1, need):
            if weights[i] == weights[j]:
                pair = (i, j)
                break
        if pair:
            break
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


def _prune_to_terminal_tree(graph: LabelledGraph, edge_ids: set) -> set:
    """Repeatedly drop non-terminal leaves: the largest sub-tree whose leaves
    are all terminals.  An edge goes exactly when one of its sides holds no
    terminal, so the order of the drops does not change the result."""
    edges = set(edge_ids)
    terminals = graph.terminals
    adj = _tree_adjacency(graph, edges)
    degree = {v: len(nbrs) for v, nbrs in adj.items()}
    stack = [v for v, d in degree.items() if d == 1 and v not in terminals]
    while stack:
        # v's one remaining edge, if a neighbour's drop has not taken it already
        for eid, y in adj[stack.pop()]:
            if eid in edges:
                edges.discard(eid)
                degree[y] -= 1
                if degree[y] == 1 and y not in terminals:
                    stack.append(y)
                break
    return edges


def extract_zero_paths(graph: LabelledGraph, tree_edges: set, k: int) -> list[PathWitness]:
    """k pairwise disjoint zero-weight terminal paths from one subcubic tree.

    While more than one path is due: root the tree at its smallest leaf,
    split at the deepest degree-3 vertex (ties to the smallest id) with more
    than |group| leaves below it, solve its subtree by pigeonhole, and go on
    with the rest of the tree, pruned to its terminal leaves, owing one path
    fewer.  The last path comes from what is left.
    """
    size = graph.group.order
    if k <= 0:
        return []
    edges = set(tree_edges)
    far_paths: list[PathWitness] = []
    while True:
        adj = _tree_adjacency(graph, edges)
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
        inside = {split}
        far_edges = set()
        for v in order[1:]:
            eid, up = parent[v]
            if up in inside:
                inside.add(v)
                far_edges.add(eid)
        far_paths += extract_zero_paths(graph, far_edges, 1)
        edges = _prune_to_terminal_tree(graph, edges - far_edges - {parent[split][0]})
        k -= 1

    if len(edges) == 1:
        # single-edge tree: only possible demand is over the trivial group
        e = graph.edge(next(iter(edges)))
        w = walk_weight(graph, (e.u, e.v), (e.eid,))
        if w != graph.group.zero():
            raise InternalInvariantError("single-edge tree with nonzero weight")
        last = PathWitness((e.u, e.v), (e.eid,), w)
        last.validate(graph)
    else:
        last = base_zero_path(graph, edges, min((v for v in adj if len(adj[v]) >= 2), key=vertex_key))
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

    Covers contain the degree-1/3 vertices of the grown forest; their size is
    checked against six times (k-1) times the group order, and the absence of
    zero paths after deletion is verified exhaustively.
    """
    if graph.model != DIRECTED:
        raise PreconditionFailed("the frame algorithm runs on the oriented model")
    if not graph.group.is_finite:
        raise PreconditionFailed("the frame algorithm needs a finite group")
    if k < 1:
        raise ValueError("k must be positive")

    trees: list[TerminalTree] = []
    forest_vertices: set = set()
    degree: dict = {}
    audit: list[dict] = []

    def add_component(witness: PathWitness):
        for v in witness.vertices:
            degree[v] = 2
        degree[witness.vertices[0]] = 1
        degree[witness.vertices[-1]] = 1
        trees.append(TerminalTree(set(witness.vertices), set(witness.edge_ids), witness))
        forest_vertices.update(witness.vertices)
        audit.append({"move": "new-component", "path": list(witness.vertices)})

    def attach(vertices: tuple, edge_ids: tuple):
        w = vertices[-1]
        target = next(t for t in trees if w in t.vertices)
        target.vertices.update(vertices)
        target.edge_ids.update(edge_ids)
        degree[w] += 1
        degree[vertices[0]] = 1
        for v in vertices[1:-1]:
            degree[v] = 2
        forest_vertices.update(vertices)
        audit.append({"move": "attach", "path": list(vertices)})

    while True:
        candidate = _first_zero_path_disjoint_from(graph, forest_vertices, limits)
        if candidate is not None:
            add_component(candidate)
        else:
            attach_found = _first_attach_path(graph, forest_vertices, degree, limits)
            if attach_found is None:
                break
            attach(*attach_found)
        if debug:
            for t in trees:
                _validate_tree(graph, t, degree)

    if len(trees) >= k:
        chosen = [t.witness for t in trees[:k]]
        outcome = PackOrCover("packing", paths=tuple(chosen))
        _validate_packing(graph, chosen, k)
        return FrameResult(outcome, tuple(audit))

    per_tree = [largest_extractable(graph, len(t.leaves(degree))) for t in trees]
    if sum(per_tree) >= k:
        paths: list[PathWitness] = []
        for t, cap in zip(trees, per_tree):
            take = min(cap, k - len(paths))
            if take > 0:
                paths.extend(extract_zero_paths(graph, t.edge_ids, take))
            if len(paths) == k:
                break
        outcome = PackOrCover("packing", paths=tuple(paths))
        _validate_packing(graph, paths, k)
        return FrameResult(outcome, tuple(audit))

    cover = frozenset(v for v, d in degree.items() if d in (1, 3))
    bound = 6 * (k - 1) * graph.group.order
    if cover and len(cover) >= bound:
        raise InternalInvariantError(f"cover size {len(cover)} breaks the bound {bound}")
    leftover = _first_zero_path_disjoint_from(graph, cover, limits)
    if leftover is not None:
        raise InternalInvariantError("zero path survives the cover; forest was not maximal")
    outcome = PackOrCover("cover", vertices=cover)
    audit.append({"move": "cover", "vertices": sorted(cover, key=vertex_key)})
    return FrameResult(outcome, tuple(audit))


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
    """Re-check both cover conclusions; used by tests and the CLI report."""
    bound = 6 * (k - 1) * graph.group.order
    leftover = _first_zero_path_disjoint_from(graph, cover, limits)
    return {
        "bound": bound,
        "size": len(cover),
        "bound_ok": len(cover) < bound or len(cover) == 0,
        "verified_empty": leftover is None,
    }
