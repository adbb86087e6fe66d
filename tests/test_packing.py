from __future__ import annotations

import itertools
import random
import sys

import pytest

from gammapath.errors import InternalInvariantError, Limits, LimitExceeded, PreconditionFailed
from gammapath.gadgets import build_integer_gadget, build_quotient_gadget, build_subgroup_escape_gadget
from gammapath.graphs import DIRECTED, UNDIRECTED, LabelledGraph, PathWitness, enumerate_terminal_paths, vertex_key
from gammapath.packing import (
    ABA,
    NONZERO,
    ODD,
    WEIGHT,
    PathFamilySpec,
    TerminalEdgeWarning,
    _verify_packing,
    duality_report,
    max_packing,
    min_cover,
    reduce_weight_to_zero,
)

from util import Z, naive_max_packing, naive_min_cover, oracle_max_packing, oracle_min_cover


def undirected(group, edges, terminals, extra=()):
    return LabelledGraph.build(group, UNDIRECTED, edges, terminals, extra)


def test_empty_family():
    z3 = Z(3)
    g = undirected(z3, [("a", "x", 1), ("x", "b", 1)], ["a", "b"])
    spec = PathFamilySpec(WEIGHT, g, weight=z3.element(1))  # only weight-2 path exists
    assert max_packing(spec) == (0, ())
    assert min_cover(spec) == (0, frozenset())


def test_two_disjoint_zero_paths():
    z2 = Z(2)
    g = undirected(
        z2,
        [("a", "x", 0), ("x", "b", 0), ("c", "y", 1), ("y", "d", 1)],
        ["a", "b", "c", "d"],
    )
    spec = PathFamilySpec(WEIGHT, g, weight=z2.zero())
    nu, packing = max_packing(spec)
    assert nu == 2
    used = set()
    for p in packing:
        p.validate(g)
        assert not used & set(p.vertices)
        used |= set(p.vertices)


def test_single_edge_path_cover():
    z2 = Z(2)
    g = undirected(z2, [("a", "b", 0)], ["a", "b"])
    spec = PathFamilySpec(WEIGHT, g, weight=z2.zero())
    tau, cover = min_cover(spec)
    assert tau == 1
    assert cover <= {"a", "b"}


def test_star_duality_example():
    z3 = Z(3)
    g = undirected(
        z3, [("a1", "c", 1), ("a2", "c", 1), ("a3", "c", 1)], ["a1", "a2", "a3"]
    )
    report = duality_report(PathFamilySpec(NONZERO, g))
    assert report["nu"] == 1
    assert report["tau"] == 1
    assert report["bound_ok"]


def test_odd_family_uses_parity():
    z5 = Z(5)
    g = undirected(
        z5,
        [("a", "x", 3), ("x", "b", 4), ("a", "b", 2)],
        ["a", "b"],
    )
    members = PathFamilySpec(ODD, g).members()
    assert sorted(len(m.edge_ids) for m in members) == [1]
    assert members[0].weight == z5.element(2)  # weight in the original labelling


def test_odd_family_on_even_subdivision():
    z2 = Z(2)
    g = undirected(
        z2, [("a", "x", 0), ("x", "y", 0), ("y", "b", 0), ("b", "z", 0)], ["a", "b"]
    )
    # all terminal paths here have odd length 3? a-x-y-b has 3 edges (odd)
    spec = PathFamilySpec(ODD, g)
    assert [len(m.edge_ids) for m in spec.members()] == [3]
    even = undirected(z2, [("a", "x", 0), ("x", "b", 0)], ["a", "b"])
    report = duality_report(PathFamilySpec(ODD, even))
    assert (report["nu"], report["tau"]) == (0, 0)


def test_aba_family_includes_trivial_paths():
    z2 = Z(2)
    g = undirected(z2, [("a", "m", 0), ("m", "b", 0)], ["a", "b"])
    spec = PathFamilySpec(ABA, g, through=frozenset({"m", "a"}))
    members = spec.members()
    trivials = [m for m in members if m.trivial]
    assert [m.vertices for m in trivials] == [("a",)]
    # the trivial path {a} is coverable only by a itself
    tau, cover = min_cover(spec)
    assert "a" in cover
    nu, packing = max_packing(spec)
    assert nu == 1  # every member contains m or a; a-m-b uses both


def test_weight_family_reads_its_weight_as_the_graph_reads_labels():
    z3 = Z(3)
    g = undirected(z3, [("a", "x", 1), ("x", "b", 0)], ["a", "b"])
    spec = PathFamilySpec(WEIGHT, g, weight=1)
    assert spec.weight == z3.element(1) and spec.to_json() == {"kind": WEIGHT, "weight": [1]}
    assert [m.vertices for m in spec.members()] == [("a", "x", "b")]
    assert spec == PathFamilySpec(WEIGHT, g, weight=z3.element(1))
    with pytest.raises(ValueError, match="invalid literal"):
        PathFamilySpec(WEIGHT, g, weight=1.0)
    with pytest.raises(ValueError, match="does not belong"):
        PathFamilySpec(WEIGHT, g, weight=Z(4).element(1))


@pytest.mark.parametrize("twin", [1.0, True])
def test_through_set_rejects_a_twin_of_a_vertex_id(twin):
    g = undirected(Z(2), [(0, 1, 0), (1, 2, 0)], [0, 2])
    assert PathFamilySpec(ABA, g, through=frozenset({1})).to_json()["through"] == [1]
    with pytest.raises(ValueError, match="vertex ids must be ints or strings"):
        PathFamilySpec(ABA, g, through=frozenset({twin}))


@pytest.mark.parametrize("through", [[1], {1}])
def test_through_set_is_kept_as_a_frozenset(through):
    g = undirected(Z(2), [(0, 1, 0), (1, 2, 0)], [0, 2])
    spec = PathFamilySpec(ABA, g, through=through)
    assert spec.through == frozenset({1}) and hash(spec) == hash(PathFamilySpec(ABA, g, through=frozenset({1})))
    assert max_packing(spec)[0] == 1


def test_aba_disjoint_pairs():
    z2 = Z(2)
    g = undirected(
        z2,
        [("a", "m", 0), ("m", "b", 0), ("c", "n", 0), ("n", "d", 0)],
        ["a", "b", "c", "d"],
    )
    spec = PathFamilySpec(ABA, g, through=frozenset({"m", "n"}))
    nu, _ = max_packing(spec)
    assert nu == 2
    report = duality_report(spec)
    assert report["theorem_backed"] and report["bound_ok"]


def _random_instance(rng, group, model, n_max=9, mixed=False):
    n = rng.randint(4, n_max)
    vertices = list(range(n))
    # mixed: odd vertices get string ids, which vertex_key orders after the ints
    name = {v: f"v{v}" if mixed and v % 2 else v for v in vertices}
    possible = list(itertools.combinations(vertices, 2))
    m = rng.randint(n - 1, min(len(possible), 2 * n))
    chosen = rng.sample(possible, m)
    elems = group.elements()
    edges = []
    for u, v in chosen:
        if model == DIRECTED:
            tail = u if rng.random() < 0.5 else v
            edges.append((name[u], name[v], rng.choice(elems), name[tail]))
        else:
            edges.append((name[u], name[v], rng.choice(elems)))
    terminals = [name[v] for v in rng.sample(vertices, rng.randint(2, 4))]
    return LabelledGraph.build(group, model, edges, terminals, extra_vertices=name.values())


def test_solvers_match_naive_oracles_on_random_instances():
    rng = random.Random(13)
    checked = 0
    for _ in range(120):
        group = rng.choice([Z(2), Z(3), Z(4)])
        model = rng.choice([DIRECTED, UNDIRECTED])
        g = _random_instance(rng, group, model)
        kind = rng.choice([WEIGHT, NONZERO, ODD])
        spec = (
            PathFamilySpec(WEIGHT, g, weight=rng.choice(group.elements()))
            if kind == WEIGHT
            else PathFamilySpec(kind, g)
        )
        members = spec.members()
        if len(members) > 12:
            continue
        checked += 1
        assert max_packing(members)[0] == naive_max_packing(members)
        assert min_cover(members)[0] == naive_min_cover(members)
    assert checked >= 40


def test_bitmask_solvers_match_the_pre_change_solvers():
    # same sizes and byte-identical certificates as the pairwise-scan solvers
    rng = random.Random(29)
    trivial = mixed = 0
    for trial in range(240):
        group = rng.choice([Z(2), Z(3), Z(4)])
        # every third graph mixes int and str vertex ids, which the tie-breaks order by vertex_key
        g = _random_instance(rng, group, rng.choice([DIRECTED, UNDIRECTED]), n_max=11, mixed=trial % 3 == 0)
        kind = rng.choice([WEIGHT, NONZERO, ODD, ABA])
        if kind == WEIGHT:
            spec = PathFamilySpec(WEIGHT, g, weight=rng.choice(group.elements()))
        elif kind == ABA:
            # a terminal in the through-set gives a trivial member
            through = rng.sample(sorted(g.terminals, key=vertex_key), rng.randint(0, 1)) + rng.sample(g.vertices, 2)
            spec = PathFamilySpec(ABA, g, through=frozenset(through))
        else:
            spec = PathFamilySpec(kind, g)
        members = spec.members()
        trivial += any(m.trivial for m in members)
        mixed += len({type(v) for m in members for v in m.vertices}) == 2
        assert max_packing(members) == oracle_max_packing(members)
        assert min_cover(members) == oracle_min_cover(members)
    assert trivial >= 20 and mixed >= 40
    # gadget families branch past the greedy seed, where tie-breaks pick the certificate
    for n in (2, 3):
        for gadget in (
            build_integer_gadget(n, 0),
            build_subgroup_escape_gadget(n, Z(4), 1, 2),
            build_quotient_gadget(n, Z(8), 1, 4),
        ):
            for kind in (ODD, NONZERO):
                members = PathFamilySpec(kind, gadget.graph).members()
                assert max_packing(members) == oracle_max_packing(members)
                assert min_cover(members) == oracle_min_cover(members)


def test_packing_certificate_check_rejects_overlapping_members():
    zero = Z(2).zero()
    left = PathWitness(("a", "m", "b"), ("e0", "e1"), zero)
    right = PathWitness(("c", "m", "d"), ("e2", "e3"), zero)
    _verify_packing((left, PathWitness(("c", "d"), ("e4",), zero)))
    with pytest.raises(InternalInvariantError, match="sharing a vertex"):
        _verify_packing((left, right))


def test_packing_never_exceeds_cover():
    rng = random.Random(17)
    for _ in range(40):
        g = _random_instance(rng, Z(3), UNDIRECTED, n_max=8)
        report = duality_report(PathFamilySpec(NONZERO, g))
        assert report["nu"] <= report["tau"]


def test_duality_bound_on_directed_nonzero():
    rng = random.Random(19)
    for _ in range(40):
        group = rng.choice([Z(2), Z(3), Z(5)])
        g = _random_instance(rng, group, DIRECTED, n_max=8)
        report = duality_report(PathFamilySpec(NONZERO, g))
        assert report["theorem_backed"]
        assert report["tau"] <= 2 * report["nu"]


def test_solvers_on_odd_cycle_conflicts():
    # five members whose conflict structure is a 5-cycle: max packing 2,
    # min cover 3 (classic case where pure greedy choices go wrong)
    z2 = Z(2)
    zero = z2.zero()
    members = [
        PathWitness((i, (i + 1) % 5), (f"e{i}",), zero) for i in range(5)
    ]
    nu, packing = max_packing(members)
    assert nu == 2
    assert not set(packing[0].vertices) & set(packing[1].vertices)
    tau, cover = min_cover(members)
    assert tau == 3
    for m in members:
        assert cover & set(m.vertices)


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_solvers_search_deeper_than_the_python_stack():
    # a 5-cycle of conflicts gives each solver's bound one unit of slack, so
    # the search dives one level per path center or singleton before it stops
    zero = Z(2).zero()
    cycle = [PathWitness((f"p{i}", f"q{i}", f"p{(i + 1) % 5}"), ("a", "b"), zero) for i in range(5)]
    k = 300
    # consecutive members share a vertex: a path of 2k+1 conflicts, packing k+1
    chain = [PathWitness((f"x{i}", f"m{i}", f"x{i + 1}"), ("a", "b"), zero) for i in range(2 * k + 1)]
    singles = [PathWitness((i,), (), zero) for i in range(k)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        nu, packing = max_packing(chain + cycle)
        tau, cover = min_cover(singles + cycle)
    finally:
        sys.setrecursionlimit(limit)
    assert nu == len(packing) == k + 3
    assert all(not set(p.vertices) & set(q.vertices) for p, q in itertools.combinations(packing, 2))
    assert tau == len(cover) == k + 3


def test_family_size_limit():
    z2 = Z(2)
    edges = [(u, v, 0) for u, v in itertools.combinations(range(8), 2)]
    g = undirected(z2, edges, [0, 1, 2, 3])
    with pytest.raises(LimitExceeded):
        max_packing(PathFamilySpec(WEIGHT, g, weight=z2.zero()), Limits(max_family=5))


def test_reduce_weight_example():
    z9 = Z(9)
    g = undirected(z9, [("a", "x", 2), ("x", "b", 1)], ["a", "b"])
    out = reduce_weight_to_zero(g, z9.element(3), z9.element(6))
    assert [e.label for e in out.edges] == [z9.element(5), z9.element(4)]
    before = enumerate_terminal_paths(g, weight=z9.element(3))
    after = enumerate_terminal_paths(out, weight=z9.zero())
    assert [p.vertices for p in before] == [p.vertices for p in after]


def test_reduce_weight_zero_is_identity():
    z4 = Z(4)
    g = undirected(z4, [("a", "x", 2), ("x", "b", 3)], ["a", "b"])
    out = reduce_weight_to_zero(g, z4.zero(), z4.zero())
    assert [e.label for e in out.edges] == [e.label for e in g.edges]


def test_reduce_weight_rejects_bad_halving():
    z4 = Z(4)
    g = undirected(z4, [("a", "x", 2)], ["a"])
    with pytest.raises(PreconditionFailed):
        reduce_weight_to_zero(g, z4.element(1), z4.element(1))


def test_reduce_weight_warns_on_terminal_edge():
    z9 = Z(9)
    g = undirected(z9, [("a", "b", 3)], ["a", "b"])
    with pytest.warns(TerminalEdgeWarning):
        out = reduce_weight_to_zero(g, z9.element(3), z9.element(6))
    # the single-edge path had weight 3 = target; it must now have weight 0
    assert out.edges[0].label == z9.element(3 - 12)


def test_reduce_weight_bijection_random():
    rng = random.Random(29)
    for group, targets in ((Z(9), range(9)), (Z(4), (0, 2))):
        for _ in range(25):
            g = _random_instance(rng, group, UNDIRECTED, n_max=8)
            ell = group.element(rng.choice(list(targets)))
            from gammapath.groups import find_halving

            half = find_halving(group, ell)
            assert half is not None
            import warnings as _w

            with _w.catch_warnings():
                _w.simplefilter("ignore", TerminalEdgeWarning)
                out = reduce_weight_to_zero(g, ell, half)
            before = {p.vertices for p in enumerate_terminal_paths(g, weight=ell)}
            after = {p.vertices for p in enumerate_terminal_paths(out, weight=group.zero())}
            assert before == after
