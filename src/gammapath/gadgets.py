"""Grid-based counterexample families and their brute-force verification.

All three labellings live on the same frame: an n-by-n grid with a pendant
terminal on every vertex of the left column (u side) and of the right column
(w side).  The adversarial labels sit on the pendants and, for two of the
variants, on the top row, so that every path of the targeted weight must
cross the grid and visit the top row; two such paths always collide.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DEFAULT_LIMITS, Limits, PreconditionFailed
from .graphs import UNDIRECTED, LabelledGraph
from .groups import GroupElem, GroupSpec, IntegerGroup, subgroup_contains
from .packing import WEIGHT, PathFamilySpec, max_packing, min_cover


@dataclass(frozen=True)
class GridGadget:
    """A built counterexample instance: the graph plus its parameters."""

    variant: str
    n: int
    graph: LabelledGraph
    target: GroupElem
    params: dict

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "n": self.n,
            "params": {k: v.to_json() if isinstance(v, GroupElem) else v for k, v in self.params.items()},
            "target": self.target.to_json(),
            "graph": self.graph.to_json(),
        }


def _grid(n: int, group: GroupSpec, model: str, u_labels: list, w_labels: list, top: GroupElem) -> LabelledGraph:
    """The pendant-decorated grid: u_i -> v{i}_1 carries u_labels[i-1],
    v{i}_n -> w_i carries w_labels[i-1], each top-row edge carries top and
    every other edge zero.  Directed: every edge runs from its first listed
    end, so pendants lead from u_i into the grid and from the grid into w_i.
    """
    zero = group.zero()
    vertices = [f"v{r}_{c}" for r in range(1, n + 1) for c in range(1, n + 1)]
    edges = []
    for r in range(1, n + 1):
        for c in range(1, n + 1):
            if c < n:
                edges.append((f"v{r}_{c}", f"v{r}_{c+1}", top if r == 1 else zero))
            if r < n:
                edges.append((f"v{r}_{c}", f"v{r+1}_{c}", zero))
    for i in range(1, n + 1):
        vertices += [f"u{i}", f"w{i}"]
        edges += [(f"u{i}", f"v{i}_1", u_labels[i - 1]), (f"v{i}_{n}", f"w{i}", w_labels[i - 1])]
    terminals = [f"u{i}" for i in range(1, n + 1)] + [f"w{i}" for i in range(1, n + 1)]
    return LabelledGraph.build(group, model, edges, terminals, vertices)


def greedy_separated_sequence(n: int, ell: int) -> list[int]:
    """Smallest positive integers g_k avoiding g_j, ell-g_j, g_j+-ell, g_j+-2ell."""
    seq: list[int] = []
    candidate = 0
    while len(seq) < n:
        candidate += 1
        if all(candidate not in (gj, ell - gj, gj + ell, gj - ell, gj + 2 * ell, gj - 2 * ell) for gj in seq):
            seq.append(candidate)
    return seq


def build_integer_gadget(n: int, ell: int, model: str = UNDIRECTED) -> GridGadget:
    """Integer-labelled grid with greedily separated pendant labels.

    Every terminal path of weight ell joins u_i to w_{n+1-i}, so no two are
    disjoint, while covers must grow with n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    group = IntegerGroup()
    gs = greedy_separated_sequence(n, ell)
    u_labels = [group.element(ell - g) for g in gs]
    w_labels = [group.element(g) for g in reversed(gs)]
    graph = _grid(n, group, model, u_labels, w_labels, group.zero())
    return GridGadget("gamma", n, graph, group.element(ell), {"ell": group.element(ell), "sequence": gs})


def build_quotient_gadget(n: int, group: GroupSpec, g1, g2) -> GridGadget:
    """Grid labelled with a pair whose coset order in the quotient exceeds two.

    Zero-weight terminal paths must run u-side to w-side through a top-row
    edge; the u-u and w-w weights stay in nonzero cosets.  When g2 has order
    2 the covering number is exactly floor(n/2): the even top-row vertices
    meet all n-1 top-row edges, and any smaller set leaves a free row r >= 2
    and two free adjacent columns, which carry a path through one top-row edge.
    """
    if n < 1:
        raise ValueError("n must be positive")
    g1 = group.element(g1)
    g2 = group.element(g2)
    zero = group.zero()
    if g1 == zero or g2 == zero:
        raise PreconditionFailed("both labels must be nonzero")
    if not group.is_finite:
        raise ValueError(f"{group.name} is infinite; the coset-order test needs a finite group")
    if not group.coset_order_above_two(g1.value, group.cyclic(g2.value)):
        raise PreconditionFailed("coset order condition fails; not a counterexample pair")
    graph = _grid(n, group, UNDIRECTED, [g1] * n, [g2 - g1] * n, g2)
    return GridGadget("gamma-prime", n, graph, zero, {"g1": g1, "g2": g2})


def build_subgroup_escape_gadget(n: int, group: GroupSpec, ell, g) -> GridGadget:
    """Grid labelled for a target weight outside the cyclic subgroup of g.

    Weight-ell terminal paths must cross u-side to w-side and use a top-row
    edge; u-u and w-w weights live in cosets that avoid ell.  When g has order
    2 the covering number is exactly floor(n/2), for the reason given in
    build_quotient_gadget.
    """
    if n < 1:
        raise ValueError("n must be positive")
    ell = group.element(ell)
    g = group.element(g)
    if g == group.zero():
        raise PreconditionFailed("the subgroup generator must be nonzero")
    if subgroup_contains(g, ell):
        raise PreconditionFailed("target lies in the subgroup; not a counterexample pair")
    graph = _grid(n, group, UNDIRECTED, [ell - g] * n, [group.zero()] * n, g)
    return GridGadget("gamma-double-prime", n, graph, ell, {"ell": ell, "g": g})


def verify_gadget(gadget: GridGadget, limits: Limits = DEFAULT_LIMITS) -> dict:
    """Brute-force the packing and covering numbers and the structural claims.

    Returns measured values plus named check verdicts; callers decide which
    checks are binding.  cover_at_least_n is measured and not binding: the
    top-row variants have tau = floor(n/2) when the top-row label has order 2,
    so it is False for them at every n >= 2.
    """
    graph = gadget.graph
    n = gadget.n
    spec = PathFamilySpec(WEIGHT, graph, weight=gadget.target)
    members = spec.members(limits)
    nu, _ = max_packing(members, limits)
    tau, cover = min_cover(members, limits)
    checks = {
        "family_size": len(members),
        "nu": nu,
        "tau": tau,
        "cover": sorted(cover, key=graph._rank.__getitem__),
        "no_two_disjoint": nu <= 1,
        "endpoints_cross": all({end[0] for end in m.endpoints} == {"u", "w"} for m in members),
        "cover_at_least_n": tau >= n,
    }
    if gadget.variant in ("gamma-prime", "gamma-double-prime"):
        top_row = {e.eid for e in graph.edges if e.u.startswith("v1_") and e.v.startswith("v1_")}
        checks["uses_top_row"] = all(not top_row.isdisjoint(m.edge_ids) for m in members)
    if gadget.variant == "gamma":
        pairs = {frozenset((f"u{i}", f"w{n + 1 - i}")) for i in range(1, n + 1)}
        checks["antidiagonal_pairing"] = all(frozenset(m.endpoints) in pairs for m in members)
    return checks
