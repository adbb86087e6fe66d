"""Independent checks of gammapath's CLI output.

Nothing here imports gammapath: groups, path weights, family membership,
naive packing/cover oracles and the structural checks are re-implemented
from the JSON formats alone, so a bug in the program cannot hide behind the
same bug in its check.

Each `check_<command>` takes the graph JSON the instance ran on (or None),
the parsed CLI output and the instance argv, and returns a list of problem
strings; an empty list means the output is correct.
"""

from __future__ import annotations

import itertools
import json

# --- groups ------------------------------------------------------------------


class Group:
    """A group from its JSON spec; elements are tuples, table indices or ints."""

    def __init__(self, spec: dict):
        self.kind = spec["type"]
        if self.kind == "cyclic_product":
            self.orders = tuple(spec["orders"])
            self.zero = (0,) * len(self.orders)
        elif self.kind == "cayley":
            self.table = spec["table"]
            self.zero = spec.get("identity", 0)
            self.inverse = [row.index(self.zero) for row in self.table]
        elif self.kind == "integers":
            self.zero = 0
        else:
            raise ValueError(f"unknown group {self.kind!r}")

    @property
    def order(self) -> int:
        if self.kind == "cyclic_product":
            size = 1
            for n in self.orders:
                size *= n
            return size
        if self.kind == "cayley":
            return len(self.table)
        raise ValueError("the integers are infinite")

    def parse(self, value):
        if self.kind == "cyclic_product":
            coords = [value] if isinstance(value, int) else value
            return tuple(int(c) % n for c, n in zip(coords, self.orders, strict=True))
        return int(value)

    def add(self, a, b):
        if self.kind == "cyclic_product":
            return tuple((x + y) % n for x, y, n in zip(a, b, self.orders))
        if self.kind == "cayley":
            return self.table[a][b]
        return a + b

    def neg(self, a):
        if self.kind == "cyclic_product":
            return tuple((-x) % n for x, n in zip(a, self.orders))
        if self.kind == "cayley":
            return self.inverse[a]
        return -a


# --- graphs and paths ----------------------------------------------------------


def vkey(v):
    return (0, v, "") if isinstance(v, int) else (1, 0, v)


class Graph:
    def __init__(self, data: dict):
        self.group = Group(data["group"])
        self.directed = data["model"] == "directed"
        self.vertices = list(data["vertices"])
        self.terminals = set(data.get("A", ()))
        self.edges = {}
        self.adj = {v: [] for v in self.vertices}
        for e in data["edges"]:
            label = self.group.parse(e["label"])
            self.edges[e["id"]] = (e["u"], e["v"], label, e.get("tail"))
            self.adj[e["u"]].append((e["id"], e["v"]))
            self.adj[e["v"]].append((e["id"], e["u"]))

    def step(self, acc, eid, into):
        """acc + label, with the label negated when `into` is the edge's tail."""
        u, v, label, tail = self.edges[eid]
        if self.directed and into == tail:
            label = self.group.neg(label)
        return self.group.add(acc, label)

    def walk_weight(self, vertices, edge_ids):
        acc = self.group.zero
        for eid, nxt in zip(edge_ids, vertices[1:]):
            acc = self.step(acc, eid, nxt)
        return acc

    def terminal_paths(self, max_len: int, removed=frozenset()):
        """Every terminal path once, as (vertices, edge ids), from its smaller end."""
        order = sorted((a for a in self.terminals if a not in removed), key=vkey)
        for a in order:
            stack = [(a, (a,), ())]
            while stack:
                at, path, edges = stack.pop()
                for eid, nxt in self.adj[at]:
                    if nxt in path or nxt in removed:
                        continue
                    if nxt in self.terminals:
                        if vkey(nxt) > vkey(a) and len(edges) < max_len:
                            yield path + (nxt,), edges + (eid,)
                        continue
                    if len(edges) + 2 <= max_len:
                        stack.append((nxt, path + (nxt,), edges + (eid,)))


def path_problems(graph: Graph, p: dict, max_len: int) -> list[str]:
    """Whether a witness is a simple terminal path whose weight is as stated."""
    vs, es = p["vertices"], p["edges"]
    stated = graph.group.parse(p["weight"])
    if p.get("trivial"):
        ok = len(vs) == 1 and not es and vs[0] in graph.terminals and stated == graph.group.zero
        return [] if ok else [f"bad trivial witness {vs}"]
    if len(vs) != len(es) + 1 or not es or len(es) > max_len:
        return [f"malformed witness {vs}"]
    if len(set(vs)) != len(vs):
        return [f"witness revisits a vertex {vs}"]
    for eid, a, b in zip(es, vs, vs[1:]):
        if eid not in graph.edges or {a, b} != set(graph.edges[eid][:2]):
            return [f"edge {eid!r} does not join {a!r} and {b!r}"]
    if vs[0] not in graph.terminals or vs[-1] not in graph.terminals:
        return [f"witness endpoints are not terminals {vs}"]
    if any(v in graph.terminals for v in vs[1:-1]):
        return [f"witness passes through a terminal {vs}"]
    if graph.walk_weight(vs, es) != stated:
        return [f"stated weight of {vs} is not its label sum"]
    return []


# --- families ------------------------------------------------------------------


def parse_family(graph: Graph, text: str) -> tuple:
    kind, _, rest = text.partition(":")
    if kind == "weight":
        try:
            value = json.loads(rest)
        except json.JSONDecodeError:
            value = rest
        return kind, graph.group.parse(value)
    if kind == "aba":
        return kind, {int(t) if t.lstrip("-").isdigit() else t for t in rest.split(",") if t}
    return kind, None


def is_member(graph: Graph, family: tuple, vertices, edge_ids) -> bool:
    """Family membership of an undirected path, either traversal direction."""
    kind, param = family
    if kind == "odd":
        return len(edge_ids) % 2 == 1
    if kind == "aba":
        return bool(param.intersection(vertices))
    forward = graph.walk_weight(vertices, edge_ids)
    if kind == "nonzero":
        return forward != graph.group.zero
    if forward == param:
        return True
    return graph.directed and graph.walk_weight(vertices[::-1], edge_ids[::-1]) == param


def family_vertex_sets(graph: Graph, family: tuple, max_len: int) -> list[frozenset]:
    out = []
    if family[0] == "aba":
        out = [frozenset([a]) for a in graph.terminals & family[1]]
    for vs, es in graph.terminal_paths(max_len):
        if is_member(graph, family, vs, es):
            out.append(frozenset(vs))
    return out


def naive_packing(sets: list[frozenset]) -> int:
    for r in range(len(sets), 0, -1):
        for combo in itertools.combinations(sets, r):
            if sum(map(len, combo)) == len(frozenset().union(*combo)):
                return r
    return 0


def naive_cover(sets: list[frozenset]) -> int:
    if not sets:
        return 0
    universe = sorted(frozenset().union(*sets), key=vkey)
    for r in range(len(universe) + 1):
        for combo in itertools.combinations(universe, r):
            chosen = set(combo)
            if all(chosen & s for s in sets):
                return r
    raise AssertionError("the whole universe always covers")


NAIVE_LIMIT = 12


def _arg(argv: list, flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _max_len(argv: list) -> int:
    return int(_arg(argv, "--max-len", 20))


def _family_problems(graph: Graph, family: tuple, max_len: int, nu, packing, tau, cover) -> list[str]:
    """Packing disjoint and made of members; cover hits every member; oracles agree."""
    problems = []
    sets = family_vertex_sets(graph, family, max_len)
    if packing is not None:
        used: set = set()
        for p in packing:
            problems += path_problems(graph, p, max_len)
            if not p.get("trivial") and not is_member(graph, family, p["vertices"], p["edges"]):
                problems.append(f"packed path {p['vertices']} is not in the family")
            if used.intersection(p["vertices"]):
                problems.append("packing paths share a vertex")
            used.update(p["vertices"])
        if len(packing) != nu:
            problems.append(f"packing has {len(packing)} paths but nu = {nu}")
    if cover is not None:
        chosen = set(cover)
        missed = sum(1 for s in sets if not chosen & s)
        if missed:
            problems.append(f"cover misses {missed} family members")
        if len(cover) != tau:
            problems.append(f"cover has {len(cover)} vertices but tau = {tau}")
    if nu is not None and tau is not None and nu > tau:
        problems.append(f"nu {nu} exceeds tau {tau}")
    if len(sets) <= NAIVE_LIMIT:
        if nu is not None and nu != (naive := naive_packing(sets)):
            problems.append(f"nu {nu} differs from the naive packing {naive}")
        if tau is not None and tau != (naive := naive_cover(sets)):
            problems.append(f"tau {tau} differs from the naive cover {naive}")
    return problems


def check_pack(graph_json, out, argv) -> list[str]:
    graph = Graph(graph_json)
    family = parse_family(graph, _arg(argv, "--family"))
    return _family_problems(graph, family, _max_len(argv), out["nu"], out["packing"], None, None)


def check_cover(graph_json, out, argv) -> list[str]:
    graph = Graph(graph_json)
    family = parse_family(graph, _arg(argv, "--family"))
    return _family_problems(graph, family, _max_len(argv), None, None, out["tau"], out["cover"])


def check_duality(graph_json, out, argv) -> list[str]:
    graph = Graph(graph_json)
    family = parse_family(graph, _arg(argv, "--family"))
    problems = _family_problems(
        graph, family, _max_len(argv), out["nu"], out["packing"]["paths"], out["tau"], out["cover"]["vertices"]
    )
    if out["bound_ok"] != (out["tau"] <= 2 * out["nu"]):
        problems.append("bound_ok disagrees with tau <= 2 nu")
    return problems


# Brute-force values frozen in tests/test_gadgets.py: (variant, n) -> (nu, tau).
FROZEN_GADGETS = {
    ("gamma", 2): (1, 2),
    ("gamma-prime", 2): (1, 1),
    ("gamma-prime", 3): (1, 1),
    ("gamma-double-prime", 2): (1, 1),
    ("gamma-double-prime", 3): (1, 1),
}


def check_gadget(graph_json, out, argv) -> list[str]:
    graph = Graph(out["graph"])
    family = ("weight", graph.group.parse(out["target"]))
    checks = out["verify"]
    problems = _family_problems(graph, family, _max_len(argv), checks["nu"], None, checks["tau"], checks["cover"])
    size = len(family_vertex_sets(graph, family, _max_len(argv)))
    if checks["family_size"] != size:
        problems.append(f"family_size {checks['family_size']} but {size} members enumerated")
    frozen = FROZEN_GADGETS.get((out["variant"], out["n"]))
    if frozen and frozen != (checks["nu"], checks["tau"]):
        problems.append(f"(nu, tau) = {(checks['nu'], checks['tau'])}, frozen value {frozen}")
    return problems


def _zero_path_exists(graph: Graph, removed: set, max_len: int) -> bool:
    zero = graph.group.zero
    return any(
        graph.walk_weight(vs, es) == zero for vs, es in graph.terminal_paths(max_len, frozenset(removed))
    )


def check_frame(graph_json, out, argv) -> list[str]:
    graph = Graph(graph_json)
    k = int(_arg(argv, "--k"))
    max_len = _max_len(argv)
    outcome = out["outcome"]
    problems = []
    if outcome["kind"] == "packing":
        used: set = set()
        for p in outcome["paths"]:
            problems += path_problems(graph, p, max_len)
            if graph.group.parse(p["weight"]) != graph.group.zero:
                problems.append(f"packed path {p['vertices']} has nonzero weight")
            if used.intersection(p["vertices"]):
                problems.append("packing paths share a vertex")
            used.update(p["vertices"])
        if len(outcome["paths"]) != k:
            problems.append(f"packing has {len(outcome['paths'])} paths, k = {k}")
        return problems
    cover = set(outcome["vertices"])
    bound = 6 * (k - 1) * graph.group.order
    if cover and len(cover) >= bound:
        problems.append(f"cover size {len(cover)} breaks the bound {bound}")
    if _zero_path_exists(graph, cover, max_len):
        problems.append("a zero-weight terminal path survives the cover")
    return problems


def _separated(adj: dict, u, v, cut) -> bool:
    seen = {u}
    stack = [u]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y == v:
                return False
            if y not in seen and y not in cut:
                seen.add(y)
                stack.append(y)
    return True


def _inseparable(adj: dict, vertices: list, u, v) -> bool:
    others = [x for x in vertices if x not in (u, v)]
    for r in (0, 1, 2):
        for cut in itertools.combinations(others, r):
            if _separated(adj, u, v, set(cut)):
                return False
    return True


def check_blocks(graph_json, out, argv) -> list[str]:
    """Block vertex sets are exactly the maximal pairwise-inseparable sets of size >= 3."""
    graph = Graph(graph_json)
    adj = {v: {y for _, y in graph.adj[v]} for v in graph.vertices}
    vs = graph.vertices
    insep = {(u, v): _inseparable(adj, vs, u, v) for u, v in itertools.combinations(vs, 2)}
    adjacent = lambda a, b: insep.get((a, b), insep.get((b, a)))

    cliques = []

    def bk(r: set, p: set, x: set):
        if not p and not x:
            if len(r) >= 3:
                cliques.append(frozenset(r))
            return
        for v in sorted(p, key=vkey):
            bk(r | {v}, {y for y in p if y != v and adjacent(v, y)}, {y for y in x if y != v and adjacent(v, y)})
            p = p - {v}
            x = x | {v}

    bk(set(), set(vs), set())
    got = [frozenset(b["vertices"]) for b in out["blocks"]]
    if sorted(map(sorted, got)) != sorted(map(sorted, cliques)):
        return ["block vertex sets differ from the maximal inseparable sets"]
    problems = []
    for b in out["blocks"]:
        bset = set(b["vertices"])
        for bridge in b["bridges"]:
            if len(bridge["attachments"]) > 2 or not set(bridge["attachments"]) <= bset:
                problems.append(f"bridge attachments {bridge['attachments']} are not a <=2 subset of the block")
    return problems


def check_normalize(graph_json, out, argv) -> list[str]:
    """Shifts are involutions, and applying them to the input gives the all-zero output."""
    graph = Graph(graph_json)
    group = graph.group
    shift = {}
    problems = []
    for v, value in out["shifts"]:
        g = group.parse(value)
        if group.add(g, g) != group.zero:
            problems.append(f"shift at {v!r} is not an involution")
        shift[v] = g
    result = Graph(out["graph"])
    for eid, (u, v, label, _) in graph.edges.items():
        expect = label
        for end in (u, v):
            if end in shift:
                expect = group.add(expect, shift[end])
        if eid not in result.edges or result.edges[eid][2] != expect:
            problems.append(f"edge {eid!r} label is not the shifted input label")
        elif expect != group.zero:
            problems.append(f"edge {eid!r} stays nonzero after the shifts")
    return problems


# Seed-independent parts of the verify-suite report: instance counts, the
# (p-1)^(p-1) chain delta vectors, the subset pairs of Z/5 and Z/7, and (in
# check_suite) every abelian group of order <= 32 and the frozen gadget values.
SUITE_CONSTANT_DETAIL = {
    "cauchy-davenport": {"pairs": 31 * 31 + 98 * 98},
    "chain-exhaustive": {
        "p3_vectors": 2**2, "p3_sharp_unreachable": True,
        "p5_vectors": 4**4, "p5_sharp_unreachable": True,
        "p7_vectors": 6**6, "p7_sharp_unreachable": True,
    },
    "frame-random": {"instances": 500},
    "duality-random": {"instances": 500},
    "normalization": {"instances": 200},
    "reduction": {"instances": 200},
}
SUITE_CHECKS = sorted([*SUITE_CONSTANT_DETAIL, "classification", "gadgets", "oracle-soundness"])


def _abelian_group_count(max_order: int) -> tuple[int, int]:
    """Number of abelian groups of order <= max_order up to isomorphism, and the sum of their orders."""

    def partitions(n, largest):
        if n == 0:
            return 1
        return sum(partitions(n - k, k) for k in range(1, min(n, largest) + 1))

    groups = pairs = 0
    for n in range(1, max_order + 1):
        count = 1
        m, p = n, 2
        while m > 1:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e:
                count *= partitions(e, e)
            p += 1
        groups += count
        pairs += count * n
    return groups, pairs


def check_suite(graph_json, out, argv) -> list[str]:
    problems = []
    ids = [c["id"] for c in out["checks"]]
    if ids != SUITE_CHECKS:
        return [f"report has checks {ids}"]
    for c in out["checks"]:
        if c["status"] != "PASS":
            problems.append(f"{c['id']} is {c['status']}")
            continue
        for key, value in SUITE_CONSTANT_DETAIL.get(c["id"], {}).items():
            if c["detail"].get(key) != value:
                problems.append(f"{c['id']} {key} = {c['detail'].get(key)!r}, expected {value!r}")
    by_id = {c["id"]: c for c in out["checks"]}
    groups, pairs = _abelian_group_count(32)
    if by_id["classification"].get("detail") != {"groups": groups, "pairs": pairs}:
        problems.append("classification did not cover every abelian group of order <= 32")
    gadgets = by_id["gadgets"].get("detail", {})
    for name, expected in (
        ("subgroup_escape_n2", FROZEN_GADGETS[("gamma-double-prime", 2)]),
        ("subgroup_escape_n3", FROZEN_GADGETS[("gamma-double-prime", 3)]),
        ("quotient_n2", FROZEN_GADGETS[("gamma-prime", 2)]),
        ("quotient_n3", FROZEN_GADGETS[("gamma-prime", 3)]),
        ("integer_n2", FROZEN_GADGETS[("gamma", 2)]),
    ):
        got = gadgets.get(name, {})
        if (got.get("nu"), got.get("tau")) != expected:
            problems.append(f"gadgets {name} = {got}, frozen value {expected}")
    summary = out["summary"]
    if summary != {"pass": 9, "fail": 0, "skipped": 0}:
        problems.append(f"summary {summary}")
    return problems


CHECKS = {
    "pack": check_pack,
    "cover": check_cover,
    "duality": check_duality,
    "gadget": check_gadget,
    "frame": check_frame,
    "blocks": check_blocks,
    "normalize": check_normalize,
    "verify-suite": check_suite,
}


def check(graph_json, out: dict, argv: list) -> list[str]:
    return CHECKS[argv[0]](graph_json, out, argv)


def verdict(argv: list, out: dict) -> dict:
    """The part of an output that must not change: nu, tau, outcome kind, PASS/FAIL."""
    command = argv[0]
    if command == "pack":
        return {"nu": out["nu"]}
    if command == "cover":
        return {"tau": out["tau"]}
    if command == "duality":
        return {"nu": out["nu"], "tau": out["tau"]}
    if command == "gadget":
        v = out["verify"]
        return {"nu": v["nu"], "tau": v["tau"], "family_size": v["family_size"]}
    if command == "frame":
        return {"kind": out["outcome"]["kind"], "size": out["outcome"]["size"]}
    if command == "blocks":
        return {"blocks": [b["vertices"] for b in out["blocks"]]}
    if command == "normalize":
        return {"shifts": len(out["shifts"])}
    return {c["id"]: c["status"] for c in out["checks"]}
