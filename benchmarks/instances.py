"""Seeded instance generators for the benchmark workloads.

Every generator draws from its own `random.Random` derived from the workload
seed, so the same seed gives byte-identical instance files.  Graphs are built
as plain JSON dicts in the CLI graph format; nothing here imports gammapath,
so the generators cannot drift with the program they feed.

Each instance is a dict:

    {"id": str, "class": str, "argv": [...], "graph": dict | None,
     "graph_from": [...] (optional)}

`argv` is the `gammapath` command line with the literal token GRAPH where the
path of the instance's graph file goes.  `graph_from`, when present, is a
`gammapath gadget` command line whose output graph the set-up writes to that
file instead.

Instances the program leaves without a verdict today (LimitExceeded on the
24-vertex dense frame graphs, RecursionError on the long path) stay in the
workloads, so `decided_share` can rise when that is fixed.
"""

from __future__ import annotations

import itertools
import random

GRAPH = "GRAPH"


# --- groups ------------------------------------------------------------------


def cyclic(n: int) -> dict:
    return {"type": "cyclic_product", "orders": [n]}


def s3_table() -> tuple[list[list[int]], int]:
    """Symmetric group on three points composed left to right, as a Cayley table."""
    perms = sorted(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    table = [[idx[tuple(b[a[x]] for x in range(3))] for b in perms] for a in perms]
    return table, idx[(0, 1, 2)]


def s3() -> dict:
    table, identity = s3_table()
    return {"type": "cayley", "identity": identity, "table": table}


def random_label(rng: random.Random, group: dict):
    if group["type"] == "cyclic_product":
        return [rng.randrange(n) for n in group["orders"]]
    return rng.randrange(len(group["table"]))


# --- graphs ------------------------------------------------------------------


def connected_graph(
    rng: random.Random, group: dict, directed: bool, n: int, m: int, terminals: int
) -> dict:
    """Random spanning tree plus m-(n-1) further distinct edges, random labels."""
    vertices = list(range(n))
    pairs = set()
    for v in range(1, n):
        u = rng.randrange(v)
        pairs.add((u, v))
    rest = [p for p in itertools.combinations(vertices, 2) if p not in pairs]
    pairs.update(rng.sample(rest, min(len(rest), m - len(pairs))))
    edges = []
    for i, (u, v) in enumerate(sorted(pairs)):
        if rng.random() < 0.5:
            u, v = v, u
        entry = {"id": i, "u": u, "v": v, "label": random_label(rng, group)}
        if directed:
            entry["tail"] = u if rng.random() < 0.5 else v
        edges.append(entry)
    return {
        "group": group,
        "model": "directed" if directed else "undirected",
        "vertices": vertices,
        "A": sorted(rng.sample(vertices, terminals)),
        "edges": edges,
    }


def three_connected_graph(rng: random.Random, group: dict, n: int, flips: list) -> dict:
    """K4 grown by degree-3 attachments, labelled phi(u)+phi(v) for involutions phi.

    Every cycle then has weight zero, so normalization must succeed.
    """
    pairs = set(itertools.combinations(range(4), 2))
    for v in range(4, n):
        for u in rng.sample(range(v), 3):
            pairs.add((u, v))
    phi = {v: rng.choice(flips) for v in range(n)}
    orders = group["orders"]
    edges = [
        {"id": i, "u": u, "v": v, "label": [(a + b) % o for a, b, o in zip(phi[u], phi[v], orders)]}
        for i, (u, v) in enumerate(sorted(pairs))
    ]
    return {"group": group, "model": "undirected", "vertices": list(range(n)), "A": [], "edges": edges}


def path_graph(group: dict, length: int) -> dict:
    """A single path with `length` edges, terminals at both ends, all labels 1."""
    edges = [
        {"id": i, "u": i, "v": i + 1, "label": [1], "tail": i} for i in range(length)
    ]
    return {
        "group": group,
        "model": "directed",
        "vertices": list(range(length + 1)),
        "A": [0, length],
        "edges": edges,
    }


# --- gadget parameters --------------------------------------------------------

# The three grid counterexamples of the paper, with the parameters the test
# suite freezes: gamma over the integers (ell = 0), gamma-prime over Z/8 with
# (g1, g2) = (1, 4), gamma-double-prime over Z/4 with (ell, g) = (1, 2).
# Each entry: variant, its `gammapath gadget` parameters, the target weight.
GADGETS = [
    ("gamma", ["--ell", "0"], "0"),
    ("gamma-prime", ["--group", '{"type":"cyclic_product","orders":[8]}', "--g1", "1", "--g2", "4"], "[0]"),
    ("gamma-double-prime", ["--group", '{"type":"cyclic_product","orders":[4]}', "--ell", "1", "--g", "2"], "[1]"),
]
GADGET_SIZES = (2, 3, 4)


# --- workloads ----------------------------------------------------------------


def _inst(iid: str, cls: str, argv: list, graph: dict | None = None, graph_from=None) -> dict:
    out = {"id": iid, "class": cls, "argv": argv, "graph": graph}
    if graph_from is not None:
        out["graph_from"] = graph_from
    return out


def suite_instances(seed: int) -> list[dict]:
    """One instance: the verification battery at this seed.

    Why: chain-exhaustive and classification are most of its time, so it
    loads `groups`, `chains` and `harness` and isolates the group
    representation and the thread-pool question.  Called without --threads,
    so the harness picks its own default.
    """
    return [_inst("suite", "verify-suite", ["verify-suite", "--seed", str(seed)])]


FAMILY_GROUPS = [cyclic(4), s3(), cyclic(2), cyclic(3)]
FAMILY_KINDS = ["weight", "nonzero", "odd", "aba"]
FAMILY_COMMANDS = ["pack", "cover", "duality"]
FAMILY_RANDOM = 400


def families_instances(seed: int) -> list[dict]:
    """Exact packing and covering.

    gadget-verify / gadget-duality (seed independent): the three grid
    gadgets at n = 2..4, built and brute-forced by `gadget --verify`, then
    solved again by `duality` from their graph JSON.  The integer gadget keeps
    the object group path in the load.  Loads `gadgets`, `packing` and path
    enumeration in `graphs`.

    random-<kind>: weight / nonzero / odd / through-set families over Z/4,
    S3, Z/2 and Z/3 on 14-18 vertices, sparse enough that every family fits
    the exact solvers.  Enumeration and branch and bound do most of the work;
    chains, frame and blocks are not touched.
    """
    out = []
    for variant, params, _ in GADGETS:
        for n in GADGET_SIZES:
            out.append(_inst(
                f"gadget-{variant}-n{n}", "gadget-verify",
                ["gadget", "--variant", variant, "--n", str(n), *params, "--verify"],
            ))
    for variant, params, target in GADGETS:
        for n in GADGET_SIZES:
            out.append(_inst(
                f"duality-{variant}-n{n}", "gadget-duality",
                ["duality", "--graph", GRAPH, "--family", f"weight:{target}"],
                graph_from=["gadget", "--variant", variant, "--n", str(n), *params],
            ))
    rng = random.Random(seed * 7919 + 11)
    for i in range(FAMILY_RANDOM):
        kind = FAMILY_KINDS[i % len(FAMILY_KINDS)]
        command = FAMILY_COMMANDS[(i // len(FAMILY_KINDS)) % len(FAMILY_COMMANDS)]
        group = FAMILY_GROUPS[(i // 12) % len(FAMILY_GROUPS)]
        # the orientation-free model needs an abelian group
        directed = group["type"] == "cayley" or rng.random() < 0.5
        # sizes cycle with the index so each seed gets the same size mix
        n = 14 + i % 5
        graph = connected_graph(rng, group, directed, n, n + 8 + (i // 5) % 3, 3 + i % 2)
        if kind == "weight":
            family = "weight:" + _label_token(random_label(rng, group))
        elif kind == "aba":
            family = "aba:" + ",".join(str(v) for v in sorted(rng.sample(range(n), rng.randint(1, 3))))
        else:
            family = kind
        out.append(_inst(f"random-{i:03d}", f"random-{kind}", [command, "--graph", GRAPH, "--family", family], graph))
    return out


def _label_token(label) -> str:
    return str(label) if isinstance(label, int) else "[" + ",".join(map(str, label)) + "]"


FRAME_SMALL = 300
FRAME_DENSE = {18: 1, 24: 2}
DENSE_SEED = 7
BLOCKS = 45
NORMALIZE = 30
PATH_EDGES = 1500


def structure_instances(seed: int) -> list[dict]:
    """Frame, block decomposition and normalization.

    frame-small: random directed instances, n <= 14, over Z/2, Z/3, Z/5, S3
    and Z/7, k = 1..3.  Loads `frame` (first-hit zero-path and attachment
    searches that skip the forest) and its cover re-check.

    frame-dense (seed independent, like the gadgets): Z/7, k = 3, 18 and 24
    vertices, average degree 5, drawn once from DENSE_SEED.  The 24-vertex
    ones end in LimitExceeded today, so they start undecided.  One frame run
    on such a graph takes anywhere from 0.03 s to 3 s depending on the draw,
    so drawing them per seed would dominate the seed-to-seed spread of
    `wall_s`; fixed, they track one hard case each.

    blocks: 12-14 vertices and about 2n edges over Z/2 x Z/2 and Z/3.  Loads
    `three_blocks` (pairwise 2-cut tests through `without_vertices`, then
    enumeration of pair weights).

    normalize: 3-connected zero-cycle labellings over Z/2, Z/2 x Z/2, Z/4 on
    6-10 vertices.  Loads the 3-connectivity test and cycle enumeration.

    The small classes are numerous so that `verdict_p50_ms` falls inside
    frame-small, and 45 blocks instances put `verdict_p90_ms` inside blocks;
    a quantile inside one class moves little from seed to seed.

    path: a 1,500-edge path under `pack` and `frame`.  Both end in
    RecursionError today, so they start undecided.
    """
    rng = random.Random(seed * 7919 + 29)
    out = []
    small_groups = [cyclic(2), cyclic(3), cyclic(5), s3(), cyclic(7)]
    for i in range(FRAME_SMALL):
        group = small_groups[i % len(small_groups)]
        n = 6 + i % 9
        m = n - 1 + (7 * i) % (n + 2)
        graph = connected_graph(rng, group, True, n, m, 2 + (i // 5) % 3)
        out.append(_inst(f"frame-small-{i:03d}", "frame-small", ["frame", "--graph", GRAPH, "--k", str(1 + (i // 15) % 3)], graph))
    dense_rng = random.Random(DENSE_SEED)
    for n, count in FRAME_DENSE.items():
        for i in range(count):
            graph = connected_graph(dense_rng, cyclic(7), True, n, 5 * n // 2, 4)
            out.append(_inst(f"frame-dense{n}-{i}", f"frame-dense{n}", ["frame", "--graph", GRAPH, "--k", "3"], graph))
    block_groups = [{"type": "cyclic_product", "orders": [2, 2]}, cyclic(3)]
    for i in range(BLOCKS):
        n = 12 + i % 3
        graph = connected_graph(rng, block_groups[i % 2], False, n, 2 * n, 2)
        out.append(_inst(f"blocks-{i:03d}", "blocks", ["blocks", "--graph", GRAPH], graph))
    norm_groups = [(cyclic(2), [[0], [1]]), ({"type": "cyclic_product", "orders": [2, 2]}, [[0, 0], [0, 1], [1, 0], [1, 1]]), (cyclic(4), [[0], [2]])]
    for i in range(NORMALIZE):
        group, flips = norm_groups[i % 3]
        graph = three_connected_graph(rng, group, 6 + i % 5, flips)
        out.append(_inst(f"normalize-{i:03d}", "normalize", ["normalize", "--graph", GRAPH], graph))
    # all labels 1 over Z/2 and an even length: the one terminal path has
    # weight zero, so a correct answer is nu = tau = 1 and a one-path packing
    long_path = path_graph(cyclic(2), PATH_EDGES)
    limits = ["--max-len", str(PATH_EDGES + 500)]
    out.append(_inst("path-pack", "path", ["pack", "--graph", GRAPH, "--family", "weight:[0]", *limits], long_path))
    out.append(_inst("path-frame", "path", ["frame", "--graph", GRAPH, "--k", "1", *limits], long_path))
    return out


# The classes that end without a verdict today.  An undecided run of any other
# class counts as a wrong verdict, also at seeds without expected answers.
MAY_BE_UNDECIDED = {"frame-dense24", "path"}

WORKLOADS = {
    "suite": suite_instances,
    "families": families_instances,
    "structure": structure_instances,
}
