from __future__ import annotations

import collections
import itertools
import random

import pytest

from gammapath import harness
from gammapath.chains import (
    CycleChain,
    multiset_masks,
    reachable_mask,
    reachable_weights,
    reroute_to_weight,
    sharpness_witness,
    zero_path_from_chain,
)
from gammapath.errors import PreconditionFailed
from gammapath.graphs import UNDIRECTED, LabelledGraph, PathWitness, walk_weight

from util import Z, make_s3, random_label


def test_reroute_identity_target():
    z3 = Z(3)
    chain = CycleChain.abstract(z3, 1, [1, 1])
    out = reroute_to_weight(chain, z3.element(1))
    assert out.subset == ()
    assert out.weight == z3.element(1)


def test_reroute_hand_dp():
    z3 = Z(3)
    chain = CycleChain.abstract(z3, 1, [1, 1])
    out = reroute_to_weight(chain, z3.zero())
    assert out.subset == (0, 1)  # 1 + 1 + 1 = 0 mod 3
    assert out.weight == z3.zero()


def test_reroute_lex_smallest_subset():
    z5 = Z(5)
    # target 2 is reachable via (1), (0,3), and (0,1,2); tuple-lex smallest wins
    chain = CycleChain.abstract(z5, 0, [1, 2, 4, 1])
    out = reroute_to_weight(chain, z5.element(2))
    assert out.subset == (0, 1, 2)
    total = z5.zero()
    for i in out.subset:
        total = total + z5.element([1, 2, 4, 1][i])
    assert total == z5.element(2)


def test_reroute_unreachable_returns_none():
    z4 = Z(4)
    chain = CycleChain.abstract(z4, 1, [2, 2])
    assert reroute_to_weight(chain, z4.zero()) is None
    assert reachable_weights(chain) == {z4.element(1), z4.element(3)}


def test_prime_field_full_length_never_misses():
    z5 = Z(5)
    chain = CycleChain.abstract(z5, 1, [1, 1, 1, 1])
    out = zero_path_from_chain(chain)
    assert out.subset == (0, 1, 2, 3)  # 1 + 4*1 = 0 mod 5


def test_zero_path_exhaustive_p3():
    z3 = Z(3)
    for core in range(3):
        for deltas in itertools.product([1, 2], repeat=2):
            chain = CycleChain.abstract(z3, core, deltas)
            out = zero_path_from_chain(chain)
            total = z3.element(core)
            for i in out.subset:
                total = total + z3.element(deltas[i])
            assert total == z3.zero()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_multiset_walk_matches_the_ordered_dp(p):
    group = Z(p)
    walked = list(multiset_masks(group, range(1, p), p - 1))
    leaves = dict(walked)
    assert len(leaves) == len(walked)
    # each ordered vector reaches what its multiset's leaf reaches, one DP per vector
    arranged = collections.Counter()
    for deltas in itertools.product(range(1, p), repeat=p - 1):
        key = tuple(sorted(deltas))
        assert leaves[key] == reachable_mask(group, 0, deltas)
        arranged[key] += 1
    assert arranged.keys() == leaves.keys()
    assert all(harness._arrangements(key) == n for key, n in arranged.items())
    assert sum(map(harness._arrangements, leaves)) == (p - 1) ** (p - 1)
    assert list(leaves) == sorted(leaves)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_multiset_walk_one_delta_short_misses_a_weight(p):
    full = (1 << p) - 1
    assert any(mask != full for _, mask in multiset_masks(Z(p), range(1, p), p - 2))


def test_multiset_walk_needs_a_finite_abelian_group():
    with pytest.raises(PreconditionFailed, match="finite abelian"):
        next(multiset_masks(make_s3(), range(1, 6), 2))


def test_zero_path_requires_nonzero_chain():
    z3 = Z(3)
    with pytest.raises(PreconditionFailed):
        zero_path_from_chain(CycleChain.abstract(z3, 1, [0, 1]))
    with pytest.raises(PreconditionFailed):
        zero_path_from_chain(CycleChain.abstract(z3, 1, [1]))
    with pytest.raises(PreconditionFailed):
        zero_path_from_chain(CycleChain.abstract(Z(4), 1, [1, 1, 1]))


def _embedded_chain(group, core_labels, detour_specs, terminals=("a", "b")):
    """Build a path a-v1-...-b with 2-edge detours over chosen intervals."""
    n = len(core_labels)
    names = ["a"] + [f"v{i}" for i in range(1, n)] + ["b"]
    edges = [(names[i], names[i + 1], core_labels[i]) for i in range(n)]
    detour_paths = []
    for d_idx, (i, j, w1, w2) in enumerate(detour_specs):
        mid = f"d{d_idx}"
        edges.append((names[i], mid, w1))
        edges.append((mid, names[j], w2))
    graph = LabelledGraph.build(group, UNDIRECTED, edges, terminals)
    core_vs = tuple(names)
    core_es = tuple(range(n))
    core = PathWitness(core_vs, core_es, walk_weight(graph, core_vs, core_es))
    for d_idx, (i, j, w1, w2) in enumerate(detour_specs):
        mid = f"d{d_idx}"
        es = (n + 2 * d_idx, n + 2 * d_idx + 1)
        vs = (names[i], mid, names[j])
        detour_paths.append(PathWitness(vs, es, walk_weight(graph, vs, es)))
    return graph, CycleChain.embedded(graph, core, detour_paths)


def test_embedded_chain_deltas_and_splice():
    z5 = Z(5)
    graph, chain = _embedded_chain(
        z5,
        core_labels=[1, 0, 0, 0, 0],
        detour_specs=[(1, 2, 2, 0), (3, 4, 1, 1)],
    )
    assert chain.core_weight == z5.element(1)
    assert list(chain.deltas) == [z5.element(2), z5.element(2)]
    out = reroute_to_weight(chain, z5.zero())
    assert out is not None
    assert out.path is not None
    out.path.validate(graph)
    assert out.path.weight == z5.zero()
    # both detours switched on: 1 + 2 + 2 = 0 mod 5
    assert out.subset == (0, 1)
    assert "d0" in out.path.vertices and "d1" in out.path.vertices


def _random_embedded_chain(rng):
    """A core a-v1-...-b with detours of up to two inner vertices over disjoint spans clear of
    the terminals, listed in span order from their left ends; `CycleChain.embedded` gets them
    shuffled, each from either end."""
    group = rng.choice([Z(2), Z(3), Z(4), Z(5), Z(7), Z(2, 2)])
    length = rng.randint(2, 9)
    names = ["a"] + [f"v{i}" for i in range(1, length)] + ["b"]
    edges = [(names[i], names[i + 1], random_label(rng, group)) for i in range(length)]
    spans, walks, i = [], [], rng.randint(1, 2)
    while i < length - 1:
        j = rng.randint(i + 1, length - 1)
        vs = [names[i], *(f"d{len(spans)}.{t}" for t in range(rng.randint(0, 2))), names[j]]
        walks.append((tuple(vs), tuple(range(len(edges), len(edges) + len(vs) - 1))))
        edges += [(u, v, random_label(rng, group)) for u, v in zip(vs, vs[1:])]
        spans.append((i, j))
        i = j + rng.randint(1, 2)
    graph = LabelledGraph.build(group, UNDIRECTED, edges, ["a", "b"])
    core = (tuple(names), tuple(range(length)))
    given = []
    for vs, es in rng.sample(walks, len(walks)):
        if rng.random() < 0.5:
            vs, es = vs[::-1], es[::-1]
        given.append(PathWitness(vs, es, walk_weight(graph, vs, es)))
    chain = CycleChain.embedded(graph, PathWitness(*core, walk_weight(graph, *core)), given)
    return chain, core, spans, walks


def _substituted(core, spans, walks, subset):
    """The core with walk t in place of span t for each t in subset, one core edge at a time."""
    (core_v, core_e), take = core, {spans[t][0]: t for t in subset}
    verts, edges, k = [core_v[0]], [], 0
    while k < len(core_e):
        if k in take:
            vs, es = walks[take[k]]
            verts += vs[1:]
            edges += es
            k = spans[take[k]][1]
        else:
            edges.append(core_e[k])
            k += 1
            verts.append(core_v[k])
    return tuple(verts), tuple(edges)


def test_spliced_reroutes_match_the_core_walked_edge_by_edge():
    rng = random.Random(34)
    spliced = 0
    for _ in range(1000):
        chain, core, spans, walks = _random_embedded_chain(rng)
        assert list(chain.intervals) == spans
        for target in chain.group.elements():
            out = reroute_to_weight(chain, target)
            if out is None:
                continue
            assert (out.path.vertices, out.path.edge_ids) == _substituted(core, spans, walks, out.subset)
            assert out.path.weight == target
            spliced += bool(out.subset)
    assert spliced > 700


def test_embedded_rejects_overlapping_intervals():
    z3 = Z(3)
    with pytest.raises(PreconditionFailed):
        _embedded_chain(z3, [0, 0, 0], [(0, 2, 1, 0), (1, 3, 1, 0)])


def test_embedded_rejects_terminal_touching_detour():
    z3 = Z(3)
    with pytest.raises(PreconditionFailed):
        # detour attached at the terminal endpoint of the core
        _embedded_chain(z3, [0, 0], [(0, 1, 1, 0)])


def test_sharpness_families():
    for p, expect in ((3, {1, 2}), (5, {1, 2, 3, 4}), (7, {1, 2, 3, 4, 5, 6})):
        chain = sharpness_witness(p)
        assert chain.length == p - 2
        group = chain.group
        reach = {e.to_json()[0] for e in reachable_weights(chain)}
        assert reach == expect
        assert reroute_to_weight(chain, group.zero()) is None


def test_coset_confinement_over_z4():
    # unit core, deltas of order two: reachable weights stay in the odd coset
    z4 = Z(4)
    for length in range(1, 7):
        chain = CycleChain.abstract(z4, 1, [2] * length)
        reach = {e.to_json()[0] for e in reachable_weights(chain)}
        assert reach <= {1, 3}
        assert reroute_to_weight(chain, z4.zero()) is None


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=80, deadline=None)
@given(
    order=st.integers(min_value=2, max_value=9),
    core=st.integers(min_value=0, max_value=8),
    deltas=st.lists(st.integers(min_value=0, max_value=8), min_size=0, max_size=6),
    target=st.integers(min_value=0, max_value=8),
)
def test_reroute_agrees_with_subset_enumeration(order, core, deltas, target):
    group = Z(order)
    chain = CycleChain.abstract(group, core % order, [d % order for d in deltas])
    goal = group.element(target % order)
    out = reroute_to_weight(chain, goal)
    reachable = set()
    for mask in range(1 << len(deltas)):
        total = chain.core_weight
        for i in range(len(deltas)):
            if mask >> i & 1:
                total = total + chain.deltas[i]
        reachable.add(total)
    if out is None:
        assert goal not in reachable
    else:
        total = chain.core_weight
        for i in out.subset:
            total = total + chain.deltas[i]
        assert total == goal
    assert reachable_weights(chain) == reachable


def test_chain_json():
    z3 = Z(3)
    chain = CycleChain.abstract(z3, 1, [1, 2])
    data = chain.to_json()
    assert data["core_weight"] == [1]
    assert data["deltas"] == [[1], [2]]
