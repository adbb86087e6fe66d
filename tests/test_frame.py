from __future__ import annotations

import inspect
import itertools
import random
import sys

import pytest

from gammapath import frame
from gammapath.errors import InternalInvariantError, LimitExceeded, Limits, PreconditionFailed
from gammapath.frame import (
    _add_path,
    _first_attach_path,
    _first_zero_path_disjoint_from,
    _validate_forest,
    base_zero_path,
    extract_zero_paths,
    frame_pack_or_cover,
    largest_extractable,
    validate_frame_cover,
)
from gammapath.graphs import DIRECTED, UNDIRECTED, LabelledGraph, PathWitness, walk_weight
from gammapath.packing import WEIGHT, PathFamilySpec, _verify_packing, max_packing

from util import Z, make_s3, oracle_extract_zero_paths, random_subcubic_tree


def directed(group, edges, terminals, extra=()):
    return LabelledGraph.build(group, DIRECTED, edges, terminals, extra)


def test_base_zero_path_star():
    z2 = Z(2)
    g = directed(
        z2,
        [("v", "l1", 1, "v"), ("v", "l2", 1, "v"), ("v", "l3", 0, "v")],
        ["l1", "l2", "l3"],
    )
    path = base_zero_path(g, {0, 1, 2}, "v")
    assert set(path.endpoints) == {"l1", "l2"}
    assert path.weight == z2.zero()


def test_base_zero_path_all_zero_labels():
    z3 = Z(3)
    g = directed(
        z3,
        [("v", "l1", 0, "v"), ("v", "l2", 0, "v"), ("v", "l3", 0, "v"), ("v", "l4", 0, "v")],
        ["l1", "l2", "l3", "l4"],
    )
    path = base_zero_path(g, {0, 1, 2, 3}, "v")
    assert path.weight == z3.zero()
    # lexicographically smallest equal-weight pair: the first two leaves
    assert set(path.endpoints) == {"l1", "l2"}


def test_base_zero_path_pigeonhole_pair():
    z3 = Z(3)
    g = directed(
        z3,
        [("v", "l1", 0, "v"), ("v", "l2", 1, "v"), ("v", "l3", 2, "v"), ("v", "l4", 1, "v")],
        ["l1", "l2", "l3", "l4"],
    )
    path = base_zero_path(g, {0, 1, 2, 3}, "v")
    assert set(path.endpoints) == {"l2", "l4"}
    assert path.weight == z3.zero()


def test_base_zero_path_needs_enough_leaves():
    z3 = Z(3)
    g = directed(z3, [("v", "l1", 0, "v"), ("v", "l2", 0, "v")], ["l1", "l2"])
    with pytest.raises(PreconditionFailed):
        base_zero_path(g, {0, 1}, "v")


def _caterpillar(group, leaf_labels):
    """Spine s0-s1-...; leaf i hangs off spine vertex i with the given label."""
    edges = []
    n = len(leaf_labels)
    for i in range(n - 1):
        edges.append((f"s{i}", f"s{i+1}", 0, f"s{i}"))
    for i, lab in enumerate(leaf_labels):
        edges.append((f"s{i}", f"l{i}", lab, f"s{i}"))
    terminals = [f"l{i}" for i in range(n)]
    return LabelledGraph.build(group, DIRECTED, edges, terminals), set(range(len(edges)))


def test_extract_two_paths_from_caterpillar():
    z2 = Z(2)
    # 7 leaves = (2*2-1)*2+1: enough for two disjoint zero paths
    g, tree = _caterpillar(z2, [0, 0, 1, 1, 0, 1, 1])
    paths = extract_zero_paths(g, tree, 2)
    assert len(paths) == 2
    used = set()
    for p in paths:
        p.validate(g)
        assert p.weight == z2.zero()
        assert not used & set(p.vertices)
        used |= set(p.vertices)


def test_extract_three_paths_deep_recursion():
    z2 = Z(2)
    # 11 leaves = (2*3-1)*2+1: three disjoint zero paths via two split levels
    g, tree = _caterpillar(z2, [0, 0, 1, 1, 0, 1, 1, 0, 0, 1, 1])
    paths = extract_zero_paths(g, tree, 3)
    assert len(paths) == 3
    used = set()
    for p in paths:
        p.validate(g)
        assert p.weight == z2.zero()
        assert not used & set(p.vertices)
        used |= set(p.vertices)


def test_extract_k1_is_base_case():
    z2 = Z(2)
    g, tree = _caterpillar(z2, [1, 1, 0])
    paths = extract_zero_paths(g, tree, 1)
    assert len(paths) == 1
    assert paths[0].weight == z2.zero()


def test_extract_requires_leaf_budget():
    z2 = Z(2)
    g, tree = _caterpillar(z2, [0, 0, 1, 1, 0, 1])  # 6 leaves < 7
    with pytest.raises(PreconditionFailed):
        extract_zero_paths(g, tree, 2)


_STAR = [("v", "l1", 0, "v"), ("v", "l2", 0, "v"), ("v", "l3", 0, "v")]


@pytest.mark.parametrize("call", [lambda g, t: extract_zero_paths(g, t, 1), lambda g, t: base_zero_path(g, t, "v")],
                         ids=["extract", "base"])
@pytest.mark.parametrize(
    "edges, terminals, tree, detail",
    [
        (_STAR, ["l1", "l2"], {0, 1, 2}, "not a terminal tree: its leaves are not exactly its terminals"),
        (_STAR, ["l1", "l2", "l3", "v"], {0, 1, 2}, "not a terminal tree: its leaves are not exactly its terminals"),
        (_STAR + [("l1", "l2", 0, "l1")], ["l1", "l2", "l3"], {0, 1, 3}, "not a terminal tree: the edges do not form one tree"),
        (_STAR + [("a", "b", 0, "a")], ["l1", "l2", "l3", "a", "b"], {0, 1, 2, 3},
         "not a terminal tree: the edges do not form one tree"),
    ],
    ids=["non-terminal-leaf", "interior-terminal", "cycle", "two-components"],
)
def test_extraction_rejects_what_is_not_a_terminal_tree(call, edges, terminals, tree, detail):
    g = directed(Z(2), edges, terminals)
    with pytest.raises(PreconditionFailed) as raised:
        call(g, tree)
    assert str(raised.value) == detail


def test_extraction_reads_ids_by_exact_type():
    # a float or bool twin of an id hashes like it; read as the id, it came back in the witness
    g = directed(Z(2), [(1, 0, 0, 1), (1, 2, 0, 1), (1, 3, 0, 1)], [0, 2, 3])
    assert base_zero_path(g, {0, 1, 2}, 1).edge_ids == (0, 1)
    for twin in (True, 1.0):
        with pytest.raises(ValueError, match=f"^edge ids must be ints or strings, got {twin}$"):
            base_zero_path(g, {0, twin, 2}, 1)
        with pytest.raises(ValueError, match=f"^edge ids must be ints or strings, got {twin}$"):
            extract_zero_paths(g, {0, twin, 2}, 1)
        with pytest.raises(ValueError, match=f"^vertex ids must be ints or strings, got {twin}$"):
            base_zero_path(g, {0, 1, 2}, twin)


def test_extraction_from_no_edges_keeps_its_own_errors():
    g = directed(Z(2), _STAR, ["l1", "l2", "l3"])
    with pytest.raises(PreconditionFailed, match="^tree has 0 leaves; 3 required for 1 paths$"):
        extract_zero_paths(g, set(), 1)
    with pytest.raises(PreconditionFailed, match="^root must be an internal tree vertex$"):
        base_zero_path(g, set(), "v")


def test_extraction_roots_the_tree_at_its_smallest_leaf_once(monkeypatch):
    # every split leaves the rooting as it was, so it is made once, not once per split
    g, tree = _caterpillar(Z(2), [0, 0, 1, 1, 0, 1, 1, 0, 0, 1, 1])
    roots = []
    rooted = frame._rooted
    monkeypatch.setattr(frame, "_rooted", lambda adj, root: roots.append(root) or rooted(adj, root))
    assert len(extract_zero_paths(g, tree, 3)) == 3
    assert roots.count("l0") == 1


def _outcome(fn, *args):
    """The paths a call returns, or the type and message of what it raises."""
    try:
        return [(p.vertices, p.edge_ids, p.weight) for p in fn(*args)]
    except Exception as exc:
        return type(exc), str(exc)


REJECTED = (PreconditionFailed, "not a terminal tree: its leaves are not exactly its terminals")


def _expected_outcome(g, tree, k):
    """The oracle's outcome on a terminal tree, and the up-front rejection on any other."""
    if {v for v in g.vertices if len(g._steps[v]) == 1} == g.terminals:
        return _outcome(oracle_extract_zero_paths, g, tree, k)
    return REJECTED


def test_extract_matches_recursive_oracle():
    # on terminal trees the sweep splits, fails and succeeds as the recursion did;
    # trees with non-terminal leaves or interior terminals are rejected up front
    rng = random.Random(303)
    groups = [Z(2), Z(3), Z(5), Z(2, 2), make_s3()]
    packed = failed = rejected = 0
    for i in range(600):
        g, tree = random_subcubic_tree(rng, groups[i % len(groups)], rng.randint(2, 60))
        leaves = sum(1 for v in g.vertices if len(g._steps[v]) == 1)
        for k in range(1, largest_extractable(g, leaves) + 2):
            got = _outcome(extract_zero_paths, g, tree, k)
            assert got == _expected_outcome(g, tree, k), (i, k)
            packed += isinstance(got, list) and k > 1
            failed += isinstance(got, tuple) and got != REJECTED
            rejected += got == REJECTED
    assert packed and failed and rejected


def test_extract_over_the_trivial_group_matches_the_oracle():
    # every leaf pair is a zero path, so splits run down to single-edge trees
    rng = random.Random(5)
    rejected = set()
    for i in range(300):
        g, tree = random_subcubic_tree(rng, Z(), rng.randint(2, 30))
        leaves = sum(1 for v in g.vertices if len(g._steps[v]) == 1)
        for k in range(1, largest_extractable(g, leaves) + 2):
            got = _outcome(extract_zero_paths, g, tree, k)
            assert got == _expected_outcome(g, tree, k), (i, k)
            rejected.add(got == REJECTED)
    assert rejected == {True, False}


def test_extract_many_paths_without_deep_recursion():
    # 399 leaves over Z/2 owe 100 paths; the recursive extraction nested one call per path
    rng = random.Random(17)
    g, tree = _caterpillar(Z(2), [rng.randrange(2) for _ in range(399)])
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        paths = extract_zero_paths(g, tree, 100)
    finally:
        sys.setrecursionlimit(old_limit)
    assert len(paths) == 100
    _verify_packing(paths)


def test_largest_extractable_search():
    z2 = Z(2)
    g = directed(z2, [("a", "b", 0, "a")], ["a", "b"])
    assert largest_extractable(g, 2) == 0
    assert largest_extractable(g, 3) == 1
    assert largest_extractable(g, 7) == 2
    assert largest_extractable(g, 10) == 2
    assert largest_extractable(g, 11) == 3


def test_frame_no_zero_path_gives_empty_cover():
    z2 = Z(2)
    g = directed(z2, [("a", "x", 1, "a"), ("x", "b", 0, "x")], ["a", "b"])
    result = frame_pack_or_cover(g, 1)
    assert result.outcome.kind == "cover"
    assert result.outcome.vertices == frozenset()
    assert result.audit[-1]["move"] == "cover"


def test_frame_k1_packs_single_zero_path():
    z2 = Z(2)
    g = directed(z2, [("a", "x", 1, "a"), ("x", "b", 1, "x")], ["a", "b"])
    result = frame_pack_or_cover(g, 1, debug=True)
    assert result.outcome.kind == "packing"
    assert len(result.outcome.paths) == 1
    assert result.outcome.paths[0].weight == z2.zero()


def test_frame_two_disjoint_components():
    z3 = Z(3)
    g = directed(
        z3,
        [
            ("a", "x", 1, "a"), ("x", "b", 2, "b"),   # weight 1 + (-2)?? -> a->x 1, b<-x: -2... weight 1-(-... )
            ("c", "y", 0, "c"), ("y", "d", 0, "y"),
        ],
        ["a", "b", "c", "d"],
    )
    # fix labels so both paths have weight zero when traversed canonically
    w1 = walk_weight(g, ("a", "x", "b"), (0, 1))
    w2 = walk_weight(g, ("c", "y", "d"), (2, 3))
    assert w2 == z3.zero()
    if w1 != z3.zero():
        g = directed(
            z3,
            [("a", "x", 1, "a"), ("x", "b", 1, "b"), ("c", "y", 0, "c"), ("y", "d", 0, "y")],
            ["a", "b", "c", "d"],
        )
        assert walk_weight(g, ("a", "x", "b"), (0, 1)) == z3.zero()
    result = frame_pack_or_cover(g, 2, debug=True)
    assert result.outcome.kind == "packing"
    assert len(result.outcome.paths) == 2


def _random_directed(rng, group, n_max=12):
    n = rng.randint(4, n_max)
    vertices = list(range(n))
    possible = list(itertools.combinations(vertices, 2))
    m = rng.randint(n - 1, min(len(possible), 2 * n))
    chosen = rng.sample(possible, m)
    elems = group.elements()
    edges = []
    for u, v in chosen:
        tail = u if rng.random() < 0.5 else v
        edges.append((u, v, rng.choice(elems), tail))
    terminals = rng.sample(vertices, rng.randint(2, 4))
    return LabelledGraph.build(group, DIRECTED, edges, terminals, extra_vertices=vertices)


def test_frame_randomized_validation():
    rng = random.Random(101)
    groups = [Z(2), Z(3), Z(5), make_s3()]
    packings = covers = 0
    for i in range(150):
        group = groups[i % len(groups)]
        g = _random_directed(rng, group)
        k = rng.randint(1, 3)
        result = frame_pack_or_cover(g, k, debug=(i % 10 == 0))
        if result.outcome.kind == "packing":
            packings += 1
            used = set()
            for p in result.outcome.paths:
                p.validate(g)
                assert p.weight == group.zero()
                assert not used & set(p.vertices)
                used |= set(p.vertices)
            assert len(result.outcome.paths) == k
        else:
            covers += 1
            checks = validate_frame_cover(g, k, result.outcome.vertices)
            assert result.checks == checks
            assert checks["bound_ok"], checks
            assert checks["verified_empty"], checks
    assert packings and covers


def test_frame_against_exact_oracle():
    # Two theorem-backed directions: a returned packing certifies nu >= k, and
    # nu < k forces the cover outcome.  (The converse -- packing whenever
    # nu >= k -- is NOT guaranteed: the greedy forest can block an optimal
    # packing and still emit a valid cover; both dichotomy arms may hold.)
    rng = random.Random(202)
    cover_despite_nu = 0
    total = 0
    for _ in range(120):
        group = rng.choice([Z(2), Z(3)])
        g = _random_directed(rng, group, n_max=9)
        spec = PathFamilySpec(WEIGHT, g, weight=group.zero())
        nu, _ = max_packing(spec)
        for k in (1, 2, 3):
            total += 1
            result = frame_pack_or_cover(g, k)
            if result.outcome.kind == "packing":
                assert nu >= k
            else:
                checks = validate_frame_cover(g, k, result.outcome.vertices)
                assert checks["bound_ok"] and checks["verified_empty"]
                if nu >= k:
                    cover_despite_nu += 1
            if nu < k:
                assert result.outcome.kind == "cover"
    # the greedy trap is rare but real; make sure this test keeps witnessing it
    assert 0 < cover_despite_nu < total // 10


def test_frame_searches_for_a_new_component_until_the_first_miss(monkeypatch):
    """The forest only grows, so after the first failed search for a zero path
    avoiding it every later one fails too.  The frame skips them; a replay of
    each skipped search before its attach move finds nothing, so the moves,
    the outcome and the checks are those of the frame that searched each time."""
    rng = random.Random(303)
    groups = [Z(2), Z(3), Z(5), make_s3()]
    searches, replays = [], []

    def search(graph, blocked, limits):
        searches.append(len(blocked))
        return _first_zero_path_disjoint_from(graph, blocked, limits)

    forests = [{}]  # the forest the frame last grew

    def add_path(forest, vertices, edge_ids):
        forests[0] = forest
        _add_path(forest, vertices, edge_ids)

    def replayed_attach(graph, sources, state, limits):
        # the frame keeps its free terminals and its table in step with the forest
        forest = forests[0]
        assert sources == [a for a in graph._terminal_order if a not in forest]
        assert state == {**dict.fromkeys(graph.terminals.union(forest), False),
                         **{v: True for v, nbrs in forest.items() if len(nbrs) == 2 and v not in graph.terminals}}
        replays.append(_first_zero_path_disjoint_from(graph, forest.keys(), limits))
        return _first_attach_path(graph, sources, state, limits)

    skipped = 0
    for i in range(80):
        g = _random_directed(rng, groups[i % len(groups)])
        k = rng.randint(1, 3)
        with monkeypatch.context() as m:
            m.setattr(frame, "_first_zero_path_disjoint_from", search)
            ours = frame_pack_or_cover(g, k)
        forests[0] = {}
        with monkeypatch.context() as m:
            m.setattr(frame, "_add_path", add_path)
            m.setattr(frame, "_first_attach_path", replayed_attach)
            assert frame_pack_or_cover(g, k).to_json() == ours.to_json()
        moves = [step["move"] for step in ours.audit]
        # one search per new component, the miss, and the cover's check
        assert len(searches) == moves.count("new-component") + 1 + (ours.outcome.kind == "cover")
        # one replay per attach search: the miss, then each one skipped
        assert replays == [None] * (moves.count("attach") + 1)
        skipped += len(replays) - 1
        searches.clear()
        replays.clear()
    assert skipped > 0


def test_first_zero_path_search_contract():
    z2 = Z(2)
    limits = Limits(max_len=2)
    # the one zero path has three edges: cut, so absence cannot be certified
    line = directed(z2, [("a", "x", 0, "a"), ("x", "y", 0, "x"), ("y", "b", 0, "y")], ["a", "b"])
    with pytest.raises(LimitExceeded) as info:
        _first_zero_path_disjoint_from(line, set(), limits)
    assert str(info.value) == "path length while certifying zero-path absence exceeds limit 2"
    # the branch through x1 is cut before the search meets a-y-b, which is returned
    g = directed(
        z2,
        [("a", "x1", 0, "a"), ("x1", "x2", 0, "x1"), ("x2", "x3", 0, "x2"),
         ("a", "y", 1, "a"), ("y", "b", 1, "y")],
        ["a", "b"],
    )
    hit = _first_zero_path_disjoint_from(g, set(), limits)
    assert (hit.vertices, hit.weight) == (("a", "y", "b"), z2.zero())


def test_attachment_search_contract():
    z2 = Z(2)
    limits = Limits(max_len=2)
    spine = [("a", "m", 0, "a"), ("m", "b", 0, "m")]
    long_way = [("c", "d1", 0, "c"), ("d1", "d2", 0, "d1"), ("d2", "m", 0, "d2")]
    # c reaches the forest only through three edges: cut, so no answer
    far = directed(z2, spine + long_way, ["a", "b", "c"])
    # the forest is the spine a-m-b: m is the one target, the terminals are forbidden
    table = {"a": False, "b": False, "c": False, "m": True}
    state = dict(table)
    with pytest.raises(LimitExceeded) as info:
        _first_attach_path(far, ["c"], state, limits)
    assert str(info.value) == "path length while searching attachments exceeds limit 2"
    # the branch through d1 is cut before the search meets c-e1-m, which is returned
    near = directed(z2, spine + long_way + [("c", "e1", 0, "c"), ("e1", "m", 0, "e1")], ["a", "b", "c"])
    assert _first_attach_path(near, ["c"], state, limits) == (("c", "e1", "m"), (5, 6))
    assert state == table  # both searches leave the caller's table as they found it


def _forest_case():
    """A valid forest over Z/2: the tree a-m-b with c attached at m, and the tree d-e.

    The graph has spare edges for corrupting it: 4 a-b, 5 m-n, 6 b-n2, 7 p-q,
    8 a-d and 9 g-h, where n, n2, p and q are not terminals.
    """
    z2 = Z(2)
    edges = [
        ("a", "m", 1, "a"), ("m", "b", 1, "m"), ("c", "m", 0, "c"), ("d", "e", 0, "d"),
        ("a", "b", 0, "a"), ("m", "n", 0, "m"), ("b", "n2", 0, "b"), ("p", "q", 0, "p"),
        ("a", "d", 0, "a"), ("g", "h", 0, "g"),
    ]
    g = directed(z2, edges, ["a", "b", "c", "d", "e", "g", "h"])
    witnesses = [PathWitness(("a", "m", "b"), (0, 1), z2.zero()), PathWitness(("d", "e"), (3,), z2.zero())]
    forest: dict = {}
    for w in witnesses:
        _add_path(forest, w.vertices, w.edge_ids)
    _add_path(forest, ("c", "m"), (2,))
    return g, forest, witnesses


def _witness(g, vertices, edge_ids):
    return PathWitness(vertices, edge_ids, walk_weight(g, vertices, edge_ids))


FOREST_CORRUPTIONS = {
    "edge joins other vertices": (
        lambda g, f, w: f["a"].__setitem__(0, (1, "m")), "not a graph edge listed at both ends"),
    "unknown edge id": (
        lambda g, f, w: (f["a"].__setitem__(0, (99, "m")), f["m"].__setitem__(0, (99, "a"))),
        "not a graph edge listed at both ends"),
    "edge listed at one end only": (lambda g, f, w: f["m"].remove((0, "a")), "not a graph edge listed at both ends"),
    "edge listed twice": (lambda g, f, w: f["a"].append((0, "m")), "listed twice"),
    "cycle": (lambda g, f, w: _add_path(f, ("a", "b"), (4,)), "not a tree"),
    "degree four": (lambda g, f, w: _add_path(f, ("m", "n"), (5,)), "not subcubic"),
    "terminal inside, non-terminal leaf": (lambda g, f, w: _add_path(f, ("b", "n2"), (6,)), "exactly its leaves"),
    "vertex in no tree": (lambda g, f, w: _add_path(f, ("p", "q"), (7,)), "outside every component"),
    "two witnesses in one tree": (lambda g, f, w: w.append(w[0]), "share a component"),
    "nonzero witness": (lambda g, f, w: w.__setitem__(0, _witness(g, ("a", "m", "c"), (0, 2))), "not zero weight"),
    "witness across two trees": (
        lambda g, f, w: w.__setitem__(1, _witness(g, ("d", "a"), (8,))), "left its component"),
    "witness off the forest": (lambda g, f, w: w.append(_witness(g, ("g", "h"), (9,))), "left the forest"),
}


def test_validate_forest_accepts_a_valid_forest():
    _validate_forest(*_forest_case())


@pytest.mark.parametrize("corruption", sorted(FOREST_CORRUPTIONS))
def test_validate_forest_rejects_each_corruption(corruption):
    graph, forest, witnesses = _forest_case()
    corrupt, message = FOREST_CORRUPTIONS[corruption]
    corrupt(graph, forest, witnesses)
    with pytest.raises(InternalInvariantError, match=message):
        _validate_forest(graph, forest, witnesses)


def test_frame_rejects_wrong_model_and_infinite_groups():
    z2 = Z(2)
    und = LabelledGraph.build(z2, UNDIRECTED, [("a", "b", 0)], ["a", "b"])
    with pytest.raises(PreconditionFailed):
        frame_pack_or_cover(und, 1)
    from util import INTS

    ints_graph = LabelledGraph.build(INTS, DIRECTED, [("a", "b", 0, "a")], ["a", "b"])
    with pytest.raises(PreconditionFailed):
        frame_pack_or_cover(ints_graph, 1)


def test_frame_quaternion_labels():
    from util import make_q8

    q8 = make_q8()
    rng = random.Random(77)
    outcomes = set()
    for _ in range(40):
        g = _random_directed(rng, q8, n_max=10)
        result = frame_pack_or_cover(g, 1, debug=True)
        outcomes.add(result.outcome.kind)
        if result.outcome.kind == "packing":
            for p in result.outcome.paths:
                p.validate(g)
                assert p.weight == q8.zero()
        else:
            checks = validate_frame_cover(g, 1, result.outcome.vertices)
            assert checks["verified_empty"]
    assert outcomes == {"packing", "cover"}


def test_frame_nonabelian_group():
    s3 = make_s3()
    a = s3.element(1)
    g = directed(
        s3,
        [("p", "x", a, "p"), ("x", "q", a, "q")],  # p->x then q->x: weight a + (-a)?? check
        ["p", "q"],
    )
    w = walk_weight(g, ("p", "x", "q"), (0, 1))
    # a (forward) then against orientation: -(a) ... total a + (-a) = 0
    assert w == s3.zero()
    result = frame_pack_or_cover(g, 1, debug=True)
    assert result.outcome.kind == "packing"
