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
    MemberTable,
    PackOrCover,
    PathFamilySpec,
    _verify_packing,
    duality_report,
    max_packing,
    min_cover,
    reduce_weight_to_zero,
)

from util import (
    Z,
    gallai_nu,
    naive_max_packing,
    naive_min_cover,
    oracle_enumerate_terminal_paths,
    oracle_max_packing,
    oracle_min_cover,
    plain_a_path_graph,
)


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
    # beside its id, which a set would merge it into
    with pytest.raises(ValueError, match="vertex ids must be ints or strings"):
        PathFamilySpec(ABA, g, through=[1, twin])


@pytest.mark.parametrize("through", [[1], {1}])
def test_through_set_is_kept_as_a_frozenset(through):
    g = undirected(Z(2), [(0, 1, 0), (1, 2, 0)], [0, 2])
    spec = PathFamilySpec(ABA, g, through=through)
    assert spec.through == frozenset({1}) and hash(spec) == hash(PathFamilySpec(ABA, g, through=frozenset({1})))
    assert max_packing(spec)[0] == 1


def test_through_set_is_read_once():
    # a one-shot iterator is checked and kept whole, not used up by the check
    g = undirected(Z(3), [(0, 1, 1), (1, 2, 2)], [0, 2])
    spec = PathFamilySpec(ABA, g, through=(v for v in [1]))
    kept = PathFamilySpec(ABA, g, through=frozenset({1}))
    assert spec == kept and spec.to_json() == {"kind": ABA, "through": [1]}
    assert spec.members() == kept.members() and len(kept.members()) == 1
    report = duality_report(spec)
    assert (report["nu"], report["tau"]) == (1, 1)
    with pytest.raises(ValueError, match="through-set family needs a vertex set"):
        PathFamilySpec(ABA, g, through=(v for v in []))


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


def _random_instance(rng, group, model, n_max=9, mixed=False, parallel=0):
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
    # drawn last, so the graphs drawn without parallel edges stay as they were
    for u, v, *_ in rng.sample(edges, min(parallel, len(edges))):
        edges.append((u, v, rng.choice(elems), *([u if rng.random() < 0.5 else v] if model == DIRECTED else [])))
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


def _members_in_key_order(spec):
    """The family's witnesses as the enumeration before the tuple pipeline listed them."""
    g, limits = spec.graph, Limits()
    if spec.kind == WEIGHT:
        return list(oracle_enumerate_terminal_paths(g, weight=spec.weight, limits=limits))
    if spec.kind == NONZERO:
        return list(oracle_enumerate_terminal_paths(g, nonzero=True, limits=limits))
    paths = oracle_enumerate_terminal_paths(g, limits=limits)
    if spec.kind == ODD:
        return [p for p in paths if len(p.edge_ids) % 2]
    trivial = [PathWitness((a,), (), g.group.zero()) for a in sorted(g.terminals & spec.through, key=vertex_key)]
    return trivial + [p for p in paths if not spec.through.isdisjoint(p.vertices)]


def test_the_tuple_pipeline_gives_the_witness_pipelines_certificates():
    # the solvers read a spec's kernel tuples; given its witnesses, or as the oracles, they must print the same
    rng = random.Random(41)
    seen = dict.fromkeys(["parallel", "reversed", "trivial", "empty"], 0)
    for trial in range(240):
        group = rng.choice([Z(2), Z(3), Z(4)])
        model = (DIRECTED, UNDIRECTED)[trial % 2]
        g = _random_instance(rng, group, model, n_max=10, mixed=trial % 3 == 0, parallel=trial % 4)
        kind = (WEIGHT, NONZERO, ODD, ABA)[trial // 2 % 4]
        if kind == WEIGHT:
            spec = PathFamilySpec(WEIGHT, g, weight=rng.choice(group.elements()))
        elif kind == ABA:
            through = rng.sample(sorted(g.terminals, key=vertex_key), rng.randint(0, 2)) + rng.sample(g.vertices, 1)
            spec = PathFamilySpec(ABA, g, through=frozenset(through))
        else:
            spec = PathFamilySpec(kind, g)
        members = spec.members()
        assert members == _members_in_key_order(spec)
        assert [(m.vertices, m.edge_ids, m.weight.value) for m in members] == spec.member_tuples()
        seen["parallel"] += g._parallel and bool(members)
        seen["reversed"] += any(vertex_key(m.vertices[0]) > vertex_key(m.vertices[-1]) for m in members)
        seen["trivial"] += any(m.trivial for m in members)
        seen["empty"] += not members

        (nu, packing), (tau, cover) = max_packing(spec), min_cover(spec)
        assert (nu, packing) == max_packing(members) == oracle_max_packing(members)
        assert (tau, cover) == min_cover(members) == oracle_min_cover(members)
        report = duality_report(spec)
        assert (report["nu"], report["tau"]) == (nu, tau)
        assert report["packing"].to_json() == PackOrCover("packing", paths=packing, nu=nu, tau=tau).to_json()
        assert report["cover"].to_json() == PackOrCover("cover", vertices=cover, nu=nu, tau=tau).to_json()
        # each printed witness is a terminal path of the graph with the weight it states
        for p in packing:
            p.validate(g)
    assert min(seen.values()) >= 5, seen


def test_min_cover_branches_on_a_shortest_uncovered_member():
    # paths of mixed lengths in K12, many with several optimal covers: the certificate is the first optimum in
    # branch order, where the lowest uncovered member of the shortest length is branched on, as before
    rng = random.Random(57)
    g = undirected(Z(2), [(u, v, 0) for u, v in itertools.combinations(range(12), 2)], [])
    eid = {frozenset((e.u, e.v)): e.eid for e in g.edges}
    zero = Z(2).zero()
    for _ in range(1000):
        members = []
        for _ in range(rng.randint(4, 30)):
            vs = rng.sample(range(rng.randint(6, 12)), rng.randint(2, 6))
            members.append(PathWitness(tuple(vs), tuple(eid[frozenset(uv)] for uv in zip(vs, vs[1:])), zero))
        assert min_cover(members) == oracle_min_cover(members)


def test_gallai_formula_matches_the_brute_force_packings():
    # the oracle's own check: seeded small all-zero graphs, against the pre-change solver and subset enumeration
    rng = random.Random(73)
    for _ in range(300):
        n = rng.randint(3, 11)
        g = plain_a_path_graph(rng, n, rng.randint(n - 1, min(2 * n, n * (n - 1) // 2)), rng.randint(2, min(n, 5)))
        members = PathFamilySpec(WEIGHT, g, weight=0).members()
        assert gallai_nu(g) == oracle_max_packing(members)[0] == max_packing(members)[0]
        if len(members) <= 12:
            assert gallai_nu(g) == naive_max_packing(members)


@pytest.mark.parametrize("seed, terminals", [(21, 4), (22, 4), (23, 4), (24, 4), (31, 6), (32, 6)])
def test_max_packing_matches_gallai_past_brute_force(seed, terminals):
    # plain A-path families of 1,000 and more members, far past the brute-force oracles;
    # tests/bench_gallai.py has the rows that take seconds
    rng = random.Random(seed)
    while True:
        n = rng.randint(14, 20)
        g = plain_a_path_graph(rng, n, rng.randint(8 * n // 5, 2 * n), terminals)
        table = MemberTable(PathFamilySpec(WEIGHT, g, weight=0))
        if len(table.rows) >= 1000:
            break
    assert max_packing(table)[0] == gallai_nu(g)


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


def test_reduce_weight_is_exact_on_a_terminal_edge():
    z9 = Z(9)
    g = undirected(z9, [("a", "b", 3)], ["a", "b"])
    out = reduce_weight_to_zero(g, z9.element(3), z9.element(6))
    # the single-edge path had weight 3 = target; g = 6 comes off at both ends, so it has weight 0
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
            out = reduce_weight_to_zero(g, ell, half)
            before = {p.vertices for p in enumerate_terminal_paths(g, weight=ell)}
            after = {p.vertices for p in enumerate_terminal_paths(out, weight=group.zero())}
            assert before == after
