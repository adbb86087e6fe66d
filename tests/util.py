"""Shared helpers for the test suite: small concrete groups and naive oracles."""

from __future__ import annotations

import itertools
import random

from gammapath.errors import InternalInvariantError, LimitExceeded, PreconditionFailed, parsing, require_keys
from gammapath.graphs import (
    DIRECTED,
    UNDIRECTED,
    Bridge,
    Edge,
    LabelledGraph,
    PathWitness,
    _eid_key,
    search_paths,
    vertex_key,
    walk_weight,
)
from gammapath.groups import CayleyGroup, CyclicProduct, GroupElem, IntegerGroup, group_from_json
from gammapath.harness import make_s3, naive_max_packing, naive_min_cover  # noqa: F401


def Z(*orders: int) -> CyclicProduct:
    return CyclicProduct(orders)


INTS = IntegerGroup()


_Q8_MUL = {
    ("e", "e"): (1, "e"), ("e", "i"): (1, "i"), ("e", "j"): (1, "j"), ("e", "k"): (1, "k"),
    ("i", "e"): (1, "i"), ("i", "i"): (-1, "e"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
    ("j", "e"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "e"), ("j", "k"): (1, "i"),
    ("k", "e"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "e"),
}

Q8_NAMES = ["e", "-e", "i", "-i", "j", "-j", "k", "-k"]


def make_q8() -> CayleyGroup:
    """Quaternion group of order 8 with elements ordered e,-e,i,-i,j,-j,k,-k."""

    def decode(name: str) -> tuple[int, str]:
        return (-1, name[1]) if name.startswith("-") else (1, name)

    def encode(sign: int, letter: str) -> str:
        return letter if sign == 1 else "-" + letter

    idx = {name: n for n, name in enumerate(Q8_NAMES)}
    table = []
    for a in Q8_NAMES:
        row = []
        sa, la = decode(a)
        for b in Q8_NAMES:
            sb, lb = decode(b)
            sm, lm = _Q8_MUL[(la, lb)]
            row.append(idx[encode(sa * sb * sm, lm)])
        table.append(row)
    return CayleyGroup(table, identity=0, name="Q8")


# --- coordinate-tuple arithmetic: the oracle for int element values --------


def coordinate_tuples(group) -> list[tuple]:
    """Every coordinate tuple of a cyclic product, in lexicographic order."""
    return list(itertools.product(*(range(n) for n in group.orders)))


def tuple_add(group, a: tuple, b: tuple) -> tuple:
    """a + b on coordinate tuples of a cyclic product."""
    return tuple((x + y) % n for x, y, n in zip(a, b, group.orders))


def tuple_neg(group, a: tuple) -> tuple:
    """-a on a coordinate tuple of a cyclic product."""
    return tuple((-x) % n for x, n in zip(a, group.orders))


# --- object-level oracles for the int and bitmask fast paths -----------------


def _object_cyclic_subgroup(e) -> set:
    seen = {e.group.zero()}
    acc = e
    while acc not in seen:
        seen.add(acc)
        acc = acc + e
    return seen


def oracle_find_bad_pair(group):
    """First nonzero (g1, g2) in canonical order whose coset order modulo <g2> exceeds 2."""
    zero = group.zero()
    elems = sorted(group.elements(), key=group.elem_sort_key)
    for g1 in elems:
        if g1 == zero:
            continue
        for g2 in elems:
            if g2 == zero:
                continue
            sub = _object_cyclic_subgroup(g2)
            acc, coset_order = g1, 1
            while acc not in sub:
                acc, coset_order = acc + g1, coset_order + 1
            if coset_order > 2:
                return (g1, g2)
    return None


def oracle_reachable_weights(chain) -> frozenset:
    """Core weight plus every subset of deltas, summed left to right on GroupElems."""
    zero = chain.group.zero()
    acc = {chain.core_weight}
    for d in chain.deltas:
        acc = {a + x for a in acc for x in (zero, d)}
    return frozenset(acc)


def oracle_reroute_subset(chain, target):
    """Lexicographically smallest detour subset whose left-to-right sum is target, or None."""
    found = []
    for r in range(chain.length + 1):
        for subset in itertools.combinations(range(chain.length), r):
            total = chain.core_weight
            for i in subset:
                total = total + chain.deltas[i]
            if total == target:
                found.append(subset)
    return min(found) if found else None


# --- adjacency reads over a graph's step table ------------------------------


def incident(graph, v) -> list:
    """The (edge, neighbour) pairs at v, in step-table order."""
    return [(graph.edge(eid), y) for eid, y, _ in graph._steps[v]]


def component_of(graph, start, forbidden=frozenset()) -> set:
    """The vertices that start reaches without entering a forbidden one."""
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for _, y, _ in graph._steps[x]:
            if y not in seen and y not in forbidden:
                seen.add(y)
                stack.append(y)
    return seen


# --- brute-force oracles for the 3-connectivity tests ------------------------


def oracle_pair_inseparable(graph, u, v) -> bool:
    """No deletion of at most two other vertices separates u from v, trying every cut."""
    others = [x for x in graph.vertices if x not in (u, v)]
    for r in (0, 1, 2):
        for cut in itertools.combinations(others, r):
            if v not in component_of(graph, u, forbidden=frozenset(cut)):
                return False
    return True


def oracle_is_three_connected(graph) -> bool:
    """At least 4 vertices and no deletion of at most 2 vertices disconnects the graph."""
    if len(graph.vertices) < 4:
        return False
    for r in (0, 1, 2):
        for cut in itertools.combinations(graph.vertices, r):
            start = next(x for x in graph.vertices if x not in cut)
            if len(component_of(graph, start, forbidden=frozenset(cut))) != len(graph.vertices) - r:
                return False
    return True


# --- the GroupElem path kernel: the oracle for the int kernel ----------------


def oracle_from_smaller_end(path, edges, end, eid) -> bool:
    """Accept each terminal path once, traversed from its smaller endpoint by vertex_key."""
    return vertex_key(end) > vertex_key(path[0])


def oracle_search_paths(graph, sources, stop, accept, *, forbidden=frozenset(), max_len, max_count, cut):
    """search_paths summing GroupElem labels over `incident`, as it was before the int kernel."""
    directed = graph.model == DIRECTED
    zero = graph.group.zero()
    found = 0
    truncated = False
    for source in sources:
        path, edges, weights, used = [source], [], [zero], {source}
        frames = [iter(incident(graph, source))]
        while frames:
            budget = max_len - len(edges)
            for e, nxt in frames[-1]:
                if nxt in forbidden:
                    continue
                if nxt in stop:
                    if budget < 1:
                        truncated = True
                    elif accept(path, edges, nxt, e.eid):
                        found += 1
                        if found > max_count:
                            raise LimitExceeded("enumerated paths", max_count)
                        step = -e.label if directed and nxt == e.tail else e.label
                        yield tuple(path) + (nxt,), tuple(edges) + (e.eid,), weights[-1] + step
                    continue
                if nxt in used:
                    continue
                if budget < 2:
                    truncated = True
                    continue
                step = -e.label if directed and nxt == e.tail else e.label
                path.append(nxt)
                edges.append(e.eid)
                weights.append(weights[-1] + step)
                used.add(nxt)
                frames.append(iter(incident(graph, nxt)))
                break
            else:
                frames.pop()
                used.discard(path.pop())
                weights.pop()
                del edges[-1:]
    if truncated:
        raise LimitExceeded(cut, max_len)


def oracle_iter_simple_cycles(graph, cycle_cap):
    """iter_simple_cycles as it was before it compared row places: a set of every emitted edge set."""
    emitted: set[frozenset] = set()

    def closes(path, edges, end, eid) -> bool:
        if eid == edges[0]:
            return False
        key = frozenset(edges) | {eid}
        if key in emitted:
            return False
        emitted.add(key)
        if len(emitted) > cycle_cap:
            raise LimitExceeded("enumerated simple cycles", cycle_cap)
        return True

    smaller: set = set()
    for start in graph.vertices:
        yield from search_paths(
            graph, (start,), {start}, closes,
            forbidden=smaller, max_len=len(graph.vertices), max_count=cycle_cap, cut="cycle length",
        )
        smaller.add(start)


def oracle_path_sort_key(p):
    """The order terminal paths were listed in: vertex keys, then edge-id keys."""
    return (tuple(vertex_key(v) for v in p.vertices), tuple(_eid_key(e) for e in p.edge_ids))


# --- GroupElem folds: the oracles for walk_weight and the potential certificate ---


def oracle_walk_weight(graph, vertices, edge_ids) -> GroupElem:
    """walk_weight summing GroupElem labels, as it was before it folded element values."""
    vertices = tuple(vertices)
    edge_ids = tuple(edge_ids)
    if len(vertices) != len(edge_ids) + 1 or not vertices:
        raise ValueError("walk must alternate vertices and edges")
    acc = graph.group.zero()
    at = vertices[0]
    if at not in graph:
        raise ValueError(f"unknown vertex {at!r}")
    for eid, nxt in zip(edge_ids, vertices[1:]):
        if eid not in graph._erank:
            raise ValueError(f"unknown edge {eid!r}")
        e = graph.edge(eid)
        if {at, nxt} != {e.u, e.v}:
            raise ValueError(f"edge {eid!r} does not join {at!r} and {nxt!r}")
        if graph.model == DIRECTED and nxt == e.tail:
            acc = acc + (-e.label)
        else:
            acc = acc + e.label
        at = nxt
    return acc


def oracle_potential_certificate(graph) -> dict | None:
    """_potential_certificate on GroupElem labels over `incident`, as it was before it ran on values."""
    zero = graph.group.zero()
    phi: dict = {}
    for root in graph.vertices:
        if root in phi:
            continue
        phi[root] = zero
        stack = [root]
        while stack:
            x = stack.pop()
            for e, y in incident(graph, x):
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


# --- terminal paths searched from both ends: the oracles for one search per path ---


def oracle_enumerate_terminal_paths(graph, *, weight=None, nonzero=False, limits):
    """enumerate_terminal_paths as it was before each path was searched once.

    Every terminal starts a search, the largest included, and a path is
    kept only from its smaller end, so a cut anywhere raises.
    """
    tset = graph.terminals
    zero = graph.group.zero()
    out = []
    for vertices, edge_ids, w in oracle_search_paths(
        graph, sorted(tset, key=vertex_key), tset, oracle_from_smaller_end,
        max_len=limits.max_len, max_count=limits.max_paths, cut="path length during exhaustive enumeration",
    ):
        if weight is not None:
            if w == weight:
                out.append(PathWitness(vertices, edge_ids, weight))
            elif graph.model == DIRECTED and -w == weight:
                out.append(PathWitness(tuple(reversed(vertices)), tuple(reversed(edge_ids)), weight))
        elif not (nonzero and w == zero):
            out.append(PathWitness(vertices, edge_ids, w))
    return tuple(sorted(out, key=oracle_path_sort_key))


def oracle_first_zero_path_disjoint_from(graph, blocked, limits):
    """The frame's first zero-weight terminal path avoiding blocked, searched from every terminal."""
    zero = graph.group.zero()
    sources = [a for a in sorted(graph.terminals, key=vertex_key) if a not in blocked]
    for vertices, edge_ids, w in oracle_search_paths(
        graph, sources, graph.terminals, oracle_from_smaller_end,
        forbidden=blocked, max_len=limits.max_len, max_count=limits.max_paths,
        cut="path length while certifying zero-path absence",
    ):
        if w == zero:
            return PathWitness(vertices, edge_ids, zero)
    return None


# --- the exact solvers before the bitmask rewrite: oracles for certificates ----


def oracle_max_packing(members) -> tuple[int, tuple]:
    """max_packing with the pairwise conflict scan and bin() counts it had before."""
    n = len(members)
    if n == 0:
        return 0, ()
    vidx: dict = {}
    masks = []
    for m in members:
        mask = 0
        for v in m.vertices:
            if v not in vidx:
                vidx[v] = len(vidx)
            mask |= 1 << vidx[v]
        masks.append(mask)
    conflict = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if masks[i] & masks[j]:
                conflict[i] |= 1 << j
                conflict[j] |= 1 << i
    order = sorted(range(n), key=lambda i: (bin(conflict[i]).count("1"), i))
    best_set: list[int] = []
    taken_mask = 0
    for i in order:
        if not masks[i] & taken_mask:
            best_set.append(i)
            taken_mask |= masks[i]
    best = len(best_set)
    best_choice = tuple(sorted(best_set))

    def bound(free: int) -> int:
        count = 0
        rest = free
        while rest:
            i = (rest & -rest).bit_length() - 1
            clique = rest & (conflict[i] | (1 << i))
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

    stack: list[tuple[int, list[int]]] = [((1 << n) - 1, [])]
    while stack:
        free, chosen = stack.pop()
        if len(chosen) + bound(free) <= best:
            continue
        if not free:
            if len(chosen) > best:
                best = len(chosen)
                best_choice = tuple(sorted(chosen))
            continue
        pick = -1
        pick_deg = -1
        rest = free
        while rest:
            i = (rest & -rest).bit_length() - 1
            deg = bin(conflict[i] & free).count("1")
            if deg > pick_deg:
                pick, pick_deg = i, deg
            rest &= rest - 1
        if pick_deg == 0:
            rest = free
            count = bin(free).count("1")
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
    return best, tuple(members[i] for i in best_choice)


def oracle_min_cover(members) -> tuple[int, frozenset]:
    """min_cover on frozensets of vertices, as it was before the bitmask rewrite."""
    if not members:
        return 0, frozenset()
    vsets = [tuple(sorted(set(m.vertices), key=vertex_key)) for m in members]
    order = sorted(range(len(vsets)), key=lambda i: (len(vsets[i]), i))
    cover: set = set()
    uncovered = set(range(len(vsets)))
    while uncovered:
        counts: dict = {}
        for i in uncovered:
            for v in vsets[i]:
                counts[v] = counts.get(v, 0) + 1
        v = min(counts, key=lambda x: (-counts[x], vertex_key(x)))
        cover.add(v)
        uncovered = {i for i in uncovered if v not in vsets[i]}
    best = len(cover)
    best_cover = frozenset(cover)

    def disjoint_bound(uncovered_ids: list[int]) -> int:
        used: set = set()
        count = 0
        for i in uncovered_ids:
            s = vsets[i]
            if not used.intersection(s):
                used.update(s)
                count += 1
        return count

    stack: list[frozenset] = [frozenset()]
    while stack:
        chosen = stack.pop()
        uncovered_ids = [i for i in order if not chosen.intersection(vsets[i])]
        if not uncovered_ids:
            if len(chosen) < best:
                best = len(chosen)
                best_cover = chosen
            continue
        if len(chosen) + disjoint_bound(uncovered_ids) >= best:
            continue
        stack.extend(chosen | {v} for v in reversed(vsets[uncovered_ids[0]]))
    for m in members:
        if not best_cover.intersection(m.vertices):
            raise InternalInvariantError("claimed cover misses a family member")
    return best, best_cover


# --- block weights by enumerating every path: the oracle for three_blocks ----


def oracle_block_path_weights(graph, bset, limits) -> dict[tuple, list[GroupElem]]:
    """Distinct weights realized by block-internal-free paths, per vertex pair.

    Enumerates every path between two block vertices, from its smaller end;
    `three_blocks` must realize the same weights with one search per
    attachment pair.
    """
    by_pair: dict[tuple, set[GroupElem]] = {}
    for vertices, _, w in oracle_search_paths(
        graph, sorted(bset, key=vertex_key), bset, oracle_from_smaller_end,
        max_len=limits.max_len, max_count=limits.max_paths,
        cut="path length during block-weight enumeration",
    ):
        by_pair.setdefault((vertices[0], vertices[-1]), set()).add(w)
    return {pair: sorted(weights, key=graph.group.elem_sort_key) for pair, weights in by_pair.items()}


def oracle_bridges(graph, bset: set) -> tuple[Bridge, ...]:
    """The bridges of a block from the components of a copy of the graph without it."""
    out = []
    rest = graph.without_vertices(bset)
    left = set(rest.vertices)
    for start in rest.vertices:
        if start not in left:
            continue
        comp = component_of(rest, start)
        left -= comp
        attach = set()
        edge_ids = []
        for e in graph.edges:
            endpoints = {e.u, e.v}
            if endpoints & comp:
                edge_ids.append(e.eid)
                attach |= endpoints & bset
        if len(attach) > 2:
            raise InternalInvariantError("bridge with more than two attachments")
        out.append(
            Bridge(
                tuple(sorted(comp, key=vertex_key)),
                tuple(sorted(attach, key=vertex_key)),
                tuple(sorted(edge_ids, key=_eid_key)),
            )
        )
    for e in graph.edges:
        if e.u in bset and e.v in bset:
            out.append(Bridge((), tuple(sorted((e.u, e.v), key=vertex_key)), (e.eid,)))
    out.sort(key=lambda b: (b.attachments and tuple(map(vertex_key, b.attachments)), b.vertices))
    return tuple(out)


def random_label(rng: random.Random, group) -> GroupElem:
    """A uniform element of a finite group, or an integer in [-3, 3]."""
    if group.is_finite:
        return rng.choice(group.elements())
    return group.element(rng.randint(-3, 3))


def sparse_graph(rng: random.Random, group, n: int, m: int) -> LabelledGraph:
    """Undirected graph on 0..n-1: a random spanning tree plus further distinct
    pairs up to m edges, with random labels and no terminals."""
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    rest = [p for p in itertools.combinations(range(n), 2) if p not in pairs]
    pairs.update(rng.sample(rest, min(len(rest), m - len(pairs))))
    edges = [(u, v, random_label(rng, group)) for u, v in sorted(pairs)]
    return LabelledGraph.build(group, UNDIRECTED, edges, (), extra_vertices=range(n))


# --- the graph constructor and reader before the one-pass boundary ------------


class OracleLabelledGraph(LabelledGraph):
    """LabelledGraph built by the constructor as it was before the one-pass
    boundary: every edge rebuilt, ids sorted by their keys, one adjacency sort
    per vertex.  The tests compare the fields it sets with the new ones."""

    def __init__(self, group, model, vertices, edges, terminals=()):
        if model not in (DIRECTED, UNDIRECTED):
            raise ValueError(f"unknown model {model!r}")
        if model == UNDIRECTED and not group.is_abelian:
            raise ValueError("the orientation-free model requires an abelian group")
        self.group = group
        self.model = model
        # ids are checked by their sort keys before they are hashed
        self.vertices = tuple(dict.fromkeys(sorted(vertices, key=vertex_key)))
        vset = set(self.vertices)
        keyed = []
        seen_ids = set()
        for e in edges:
            if not isinstance(e, Edge):
                e = Edge(*e)
            key = _eid_key(e.eid)
            if e.eid in seen_ids:
                raise ValueError(f"duplicate edge id {e.eid!r}")
            seen_ids.add(e.eid)
            if e.u not in vset or e.v not in vset:
                raise ValueError(f"edge {e.eid!r} has an endpoint outside the vertex set")
            if e.u == e.v:
                raise ValueError(f"edge {e.eid!r} is a loop")
            label = e.label
            # an element made on this very group (graph_from_json's) is valid already
            if not (isinstance(label, GroupElem) and label.group is group):
                label = group.element(label)
            if model == DIRECTED:
                if e.tail not in (e.u, e.v):
                    raise ValueError(f"edge {e.eid!r} needs an orientation in the directed model")
            elif e.tail is not None:
                raise ValueError(f"edge {e.eid!r} carries an orientation in the undirected model")
            keyed.append((key, Edge(e.eid, e.u, e.v, label, e.tail)))
        keyed.sort(key=lambda ke: ke[0])
        self.edges = tuple(e for _, e in keyed)
        self.terminals = frozenset(terminals)
        if not self.terminals <= vset:
            raise ValueError("terminals must be vertices")
        self._terminal_order = tuple(sorted(self.terminals, key=vertex_key))
        # vertices and edges are sorted, so index ranks order them as their keys do
        self._rank = rank = {v: i for i, v in enumerate(self.vertices)}
        self._erank = {e.eid: i for i, e in enumerate(self.edges)}
        adj: dict = {v: [] for v in self.vertices}
        for e in self.edges:
            adj[e.u].append((e, e.v))
            adj[e.v].append((e, e.u))
        # edges went in by id and the sort is stable: neighbour order, then edge id
        for v in adj:
            adj[v].sort(key=lambda pair: rank[pair[1]])
        # the path kernel's step table: (edge id, next vertex, step value); the step
        # is negated when it enters the edge's tail, which only directed edges have
        neg = group._neg
        self._steps = {
            v: tuple((e.eid, y, neg(e.label.value) if y == e.tail else e.label.value) for e, y in pairs)
            for v, pairs in adj.items()
        }
        self._parallel = len({frozenset((e.u, e.v)) for e in self.edges}) < len(self.edges)


def oracle_graph_from_json(data: dict) -> OracleLabelledGraph:
    """graph_from_json before the label memo: each label parsed on its own."""
    require_keys(data, ("group", "model", "vertices", "edges"), "graph")
    group = group_from_json(data["group"])
    model = data["model"]
    with parsing("graph"):
        edges = []
        for entry in data["edges"]:
            require_keys(entry, ("id", "u", "v", "label"), "edge")
            edges.append(
                Edge(
                    entry["id"],
                    entry["u"],
                    entry["v"],
                    group.element(entry["label"]),
                    entry.get("tail") if model == DIRECTED else None,
                )
            )
        return OracleLabelledGraph(group, model, data["vertices"], edges, data.get("A", ()))


def graph_tables(graph: LabelledGraph) -> tuple:
    """Every field the constructor sets, in a form that compares order too."""
    return (
        graph.vertices,
        graph.edges,
        graph.terminals,
        graph._terminal_order,
        [incident(graph, v) for v in graph.vertices],
        list(graph._steps.items()),
        list(graph._rank.items()),
        list(graph._erank.items()),
        graph._parallel,
    )


# --- zero-path extraction by recursion: the oracle for the extraction loop -----


def _oracle_tree_adjacency(graph, edge_ids) -> dict:
    adj: dict = {}
    for eid in sorted(edge_ids, key=_eid_key):
        e = graph.edge(eid)
        adj.setdefault(e.u, []).append((eid, e.v))
        adj.setdefault(e.v, []).append((eid, e.u))
    for v in adj:
        adj[v].sort(key=lambda pair: vertex_key(pair[1]))
    return adj


def _oracle_leaf_paths_from(adj: dict, v) -> list[tuple[tuple, tuple]]:
    """All paths in the tree from v to each leaf, ordered by leaf id."""
    out = []
    stack = [((v,), ())]
    while stack:
        path, edges = stack.pop()
        nbrs = [(eid, y) for eid, y in adj[path[-1]] if len(path) < 2 or y != path[-2]]
        if not nbrs and len(path) > 1:
            out.append((path, edges))
        stack.extend((path + (y,), edges + (eid,)) for eid, y in nbrs)
    out.sort(key=lambda pe: vertex_key(pe[0][-1]))
    return out


def oracle_base_zero_path(graph, tree_edges, v) -> PathWitness:
    """frame.base_zero_path as it was when it listed every leaf path from v."""
    group = graph.group
    if not group.is_finite:
        raise PreconditionFailed("pigeonhole extraction needs a finite group")
    adj = _oracle_tree_adjacency(graph, tree_edges)
    if v not in adj or len(adj[v]) == 1:
        raise PreconditionFailed("root must be an internal tree vertex")
    paths = _oracle_leaf_paths_from(adj, v)
    need = group.order + 1
    if len(paths) < need:
        raise PreconditionFailed(f"need {need} leaf paths, found {len(paths)}")
    chosen = paths[:need]
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


def _oracle_leaf_count(graph, edge_ids) -> int:
    adj = _oracle_tree_adjacency(graph, edge_ids)
    return sum(1 for v in adj if len(adj[v]) == 1)


def _oracle_distances_from(adj: dict, start) -> dict:
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for _, y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return dist


def _oracle_prune_to_terminal_tree(graph, edge_ids) -> set:
    """Drop the first non-terminal leaf's edge, one adjacency rebuild per drop."""
    edges = set(edge_ids)
    terminals = graph.terminals
    while True:
        adj = _oracle_tree_adjacency(graph, edges)
        drop = None
        for v, nbrs in adj.items():
            if len(nbrs) == 1 and v not in terminals:
                drop = nbrs[0][0]
                break
        if drop is None:
            return edges
        edges.discard(drop)


def oracle_extract_zero_paths(graph, tree_edges, k) -> list[PathWitness]:
    """frame.extract_zero_paths as it was: one recursion per path, and a DFS
    from the anchor leaf around every degree-3 vertex to find the split."""
    group = graph.group
    size = group.order
    if k <= 0:
        return []
    edges = set(tree_edges)
    leaves_now = _oracle_leaf_count(graph, edges)
    if leaves_now < (2 * k - 1) * size + 1:
        raise PreconditionFailed(
            f"tree has {leaves_now} leaves; {(2 * k - 1) * size + 1} required for {k} paths"
        )
    if k == 1:
        adj = _oracle_tree_adjacency(graph, edges)
        if len(edges) == 1:
            e = graph.edge(next(iter(edges)))
            w = walk_weight(graph, (e.u, e.v), (e.eid,))
            if w != group.zero():
                raise InternalInvariantError("single-edge tree with nonzero weight")
            witness = PathWitness((e.u, e.v), (e.eid,), w)
            witness.validate(graph)
            return [witness]
        internal = sorted((v for v in adj if len(adj[v]) >= 2), key=vertex_key)
        return [oracle_base_zero_path(graph, edges, internal[0])]

    adj = _oracle_tree_adjacency(graph, edges)
    anchor = min((v for v in adj if len(adj[v]) == 1), key=vertex_key)
    dist = _oracle_distances_from(adj, anchor)
    total_leaves = leaves_now

    best = None  # (vertex, far_edges, near_edges); maximize distance, break ties downward
    for v in adj:
        if len(adj[v]) != 3:
            continue
        comp_edges = set()
        stack = [anchor]
        seen = {anchor}
        while stack:
            x = stack.pop()
            for eid, y in adj[x]:
                if y == v or y in seen:
                    continue
                seen.add(y)
                comp_edges.add(eid)
                stack.append(y)
        far_edges = {
            eid for eid in edges if not (graph.edge(eid).u in seen or graph.edge(eid).v in seen)
        }
        far_leaves = total_leaves - sum(1 for x in seen if len(adj[x]) == 1)
        if far_leaves >= size + 1:
            better = best is None or dist[v] > dist[best[0]] or (
                dist[v] == dist[best[0]] and vertex_key(v) < vertex_key(best[0])
            )
            if better:
                best = (v, far_edges, comp_edges)
    if best is None:
        raise InternalInvariantError("no admissible split vertex; contradicts the leaf bound")
    v, far_edges, near_prime_edges = best
    near_edges = _oracle_prune_to_terminal_tree(graph, near_prime_edges)
    far_paths = oracle_extract_zero_paths(graph, far_edges, 1)
    near_paths = oracle_extract_zero_paths(graph, near_edges, k - 1)
    out = near_paths + far_paths
    used: set = set()
    for p in out:
        if used & set(p.vertices):
            raise InternalInvariantError("extracted paths overlap")
        used |= set(p.vertices)
    return out


def random_subcubic_tree(rng: random.Random, group, n: int):
    """A directed graph that is one random subcubic tree on n >= 2 vertices.

    Each vertex after the first hangs off a random earlier vertex of degree
    below 3, by an edge of random orientation and label.  Ids mix ints and
    strings.  Leaves are terminals, except that one tree in four turns a few
    leaves into non-terminals and one in four makes a few interior vertices
    terminals too.  Returns the graph and its edge-id set.
    """
    names = [v if rng.random() < 0.5 else f"v{v}" for v in rng.sample(range(4 * n), n)]
    degree = {names[0]: 0}
    edges = []
    for i, v in enumerate(names[1:]):
        u = rng.choice([x for x in names[: i + 1] if degree[x] < 3])
        degree[u] += 1
        degree[v] = 1
        edges.append(Edge(f"e{i}" if i % 3 else i, u, v, rng.choice(group.elements()), rng.choice((u, v))))
    leaves = [v for v in names if degree[v] == 1]
    interior = [v for v in names if degree[v] > 1]
    terminals = set(leaves)
    if rng.random() < 0.25:
        terminals -= set(rng.sample(leaves, rng.randint(1, max(1, len(leaves) // 4))))
    if interior and rng.random() < 0.25:
        terminals |= set(rng.sample(interior, rng.randint(1, max(1, len(interior) // 4))))
    return LabelledGraph(group, DIRECTED, names, edges, terminals), {e.eid for e in edges}
