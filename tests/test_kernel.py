"""The int path kernel, walk weight and potential certificate against the
GroupElem versions they replaced, one search per terminal path against the
search from both ends, and the state-table kernel with its member test
against the GroupElem kernel run once per source."""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from gammapath.errors import DEFAULT_LIMITS, Limits, LimitExceeded
from gammapath.frame import _first_zero_path_disjoint_from
from gammapath.graphs import (
    DIRECTED,
    UNDIRECTED,
    Edge,
    LabelledGraph,
    PathWitness,
    _potential_certificate,
    enumerate_terminal_paths,
    search_paths,
    search_terminal_paths,
    vertex_key,
    walk_weight,
)
from gammapath.packing import ABA, NONZERO, ODD, WEIGHT, PathFamilySpec

from util import (
    INTS,
    Z,
    make_s3,
    oracle_enumerate_terminal_paths,
    oracle_first_zero_path_disjoint_from,
    oracle_from_smaller_end,
    oracle_potential_certificate,
    oracle_search_paths,
    oracle_walk_weight,
    table_search_paths,
)

# S3 is nonabelian, so it lives in the directed model only
CASES = [
    (Z(4), DIRECTED), (Z(4), UNDIRECTED),
    (Z(2, 4), DIRECTED), (Z(2, 4), UNDIRECTED),
    (make_s3(), DIRECTED),
    (INTS, DIRECTED), (INTS, UNDIRECTED),
]


def _labels(group):
    return [INTS.element(k) for k in range(-3, 4)] if group == INTS else group.elements()


def _random_graph(rng, group, model, parallel=True):
    """Mixed int/str vertex and edge ids, some parallel edges unless parallel is false."""
    n = rng.randint(4, 8)
    vertices = [i if rng.random() < 0.5 else f"v{i}" for i in range(n)]
    possible = list(itertools.combinations(vertices, 2))
    pairs = rng.sample(possible, rng.randint(n - 1, min(len(possible), 2 * n)))
    if parallel:
        pairs += rng.sample(pairs, rng.randint(0, 2))
    labels = _labels(group)
    edges = [
        Edge(k if rng.random() < 0.5 else f"e{k}", u, v, rng.choice(labels),
             rng.choice((u, v)) if model == DIRECTED else None)
        for k, (u, v) in enumerate(pairs)
    ]
    terminals = rng.sample(vertices, rng.randint(2, min(4, n)))
    return LabelledGraph(group, model, vertices, edges, terminals)


def _outcome(search, accept, value, graph, forbidden, max_len, max_count):
    """Every yielded (vertices, edge ids, weight value), then the LimitExceeded text or None."""
    sources = [a for a in sorted(graph.terminals, key=vertex_key) if a not in forbidden]
    got = []
    try:
        for vs, es, w in search(
            graph, sources, graph.terminals, accept,
            forbidden=forbidden, max_len=max_len, max_count=max_count, cut="path length",
        ):
            got.append((vs, es, value(w)))
    except LimitExceeded as exc:
        return got, str(exc)
    return got, None


@pytest.mark.parametrize("group,model", CASES, ids=lambda c: getattr(c, "name", c))
def test_int_kernel_matches_groupelem_oracle(group, model):
    rng = random.Random(f"{group.name}-{model}")
    raised = {"complete": 0, "cut": 0, "overflow": 0}
    for _ in range(30):
        g = _random_graph(rng, group, model)
        forbidden = frozenset(rng.sample(g.vertices, rng.randint(0, 2)))
        n = len(g.vertices)
        for name, max_len, max_count in (("complete", n, 10**6), ("cut", 2, 10**6), ("overflow", n, 2)):
            ours = _outcome(table_search_paths, oracle_from_smaller_end, lambda w: w, g, forbidden, max_len, max_count)
            theirs = _outcome(
                oracle_search_paths, oracle_from_smaller_end, lambda w: w.value, g, forbidden, max_len, max_count
            )
            assert ours == theirs
            raised[name] += ours[1] is not None
    # the complete runs finish, and each limit is hit on some graphs
    assert raised["complete"] == 0 and raised["cut"] > 0 and raised["overflow"] > 0


@pytest.mark.parametrize("group,model", CASES, ids=lambda c: getattr(c, "name", c))
def test_terminal_paths_keep_the_key_order(group, model):
    rng = random.Random(f"order-{group.name}-{model}")
    matched = 0
    for _ in range(30):
        g = _random_graph(rng, group, model)
        weight = rng.choice(_labels(group))
        for target in (None, weight):
            ours = enumerate_terminal_paths(g, weight=target)
            assert ours == oracle_enumerate_terminal_paths(g, weight=target, limits=DEFAULT_LIMITS)
            for p in ours:
                p.validate(g)  # the stored weight is the walk weight
                assert target is None or p.weight == target
            matched += bool(target is not None and ours)
    assert matched > 0


@pytest.mark.parametrize("group,model", CASES, ids=lambda c: getattr(c, "name", c))
def test_terminal_paths_of_a_simple_graph_leave_the_kernel_in_key_order(group, model):
    rng = random.Random(f"simple-{group.name}-{model}")
    zero = group.zero().value
    for _ in range(30):
        g = _random_graph(rng, group, model, parallel=False)
        assert not g._parallel
        raw = list(search_terminal_paths(g, limits=DEFAULT_LIMITS, cut="path length"))
        # (our filter, the oracle's or None, the paths kept); the oracle keeps its nonzero flag
        nonzero = lambda path, edges, end, w: w != zero  # noqa: E731
        queries = [({}, {}, raw), ({"keep": nonzero}, {"nonzero": True}, [r for r in raw if r[2] != zero]),
                   ({"keep": lambda path, edges, end, w: not len(edges) % 2}, None, [r for r in raw if len(r[1]) % 2])]
        if model == UNDIRECTED:  # no member is kept reversed
            weight = rng.choice(_labels(group))
            queries.append(({"weight": weight}, {"weight": weight}, [r for r in raw if r[2] == weight.value]))
        for kw, oracle_kw, kept in queries:
            ours = enumerate_terminal_paths(g, **kw)
            assert [(p.vertices, p.edge_ids, p.weight.value) for p in ours] == kept
            if oracle_kw is not None:
                assert ours == oracle_enumerate_terminal_paths(g, limits=DEFAULT_LIMITS, **oracle_kw)
            # the members of one weight share one element
            assert len({id(p.weight) for p in ours}) == len({p.weight for p in ours})


def test_parallel_edges_put_the_terminal_paths_in_key_order():
    # the kernel meets a-0-x-b, a-0-x-c, a-1-x-b, a-1-x-c; key order puts b before c
    edges = [("a", "x", 1), ("a", "x", 2), ("x", "b", 0), ("x", "c", 0)]
    g = LabelledGraph.build(Z(3), UNDIRECTED, edges, ["a", "b", "c"])
    assert g._parallel
    ours = enumerate_terminal_paths(g)
    assert [(p.vertices, p.edge_ids) for p in ours] == [
        (("a", "x", "b"), (0, 2)), (("a", "x", "b"), (1, 2)),
        (("a", "x", "c"), (0, 3)), (("a", "x", "c"), (1, 3)),
        (("b", "x", "c"), (2, 3)),
    ]
    assert ours == oracle_enumerate_terminal_paths(g, limits=DEFAULT_LIMITS)


def test_a_reversed_weight_member_is_put_in_key_order():
    # weight 2 over Z/3: a-b weighs 1 from a and is kept as b-a; a-c weighs 2 as met
    z3 = Z(3)
    g = LabelledGraph.build(z3, DIRECTED, [("a", "b", 1, "a"), ("a", "c", 2, "a")], ["a", "b", "c"])
    assert not g._parallel
    ours = enumerate_terminal_paths(g, weight=z3.element(2))
    assert [p.vertices for p in ours] == [("a", "c"), ("b", "a")]
    assert ours == oracle_enumerate_terminal_paths(g, weight=z3.element(2), limits=DEFAULT_LIMITS)


def test_enumeration_takes_one_filter_at_most():
    z3 = Z(3)
    g = LabelledGraph.build(z3, UNDIRECTED, [("a", "b", 1)], ["a", "b"])
    odd = lambda path, edges, end, w: not len(edges) % 2  # noqa: E731
    with pytest.raises(ValueError, match="^choose at most one filter$"):
        enumerate_terminal_paths(g, weight=z3.element(1), keep=odd)
    assert [p.vertices for p in enumerate_terminal_paths(g, keep=odd)] == [("a", "b")]


def _result(call):
    """(what call returns, None), or (None, the text of the LimitExceeded it raises)."""
    try:
        return call(), None
    except LimitExceeded as exc:
        return None, str(exc)


def _compare(ours, theirs, complete) -> str:
    """Our outcome is the oracle's, except where the oracle's only cut lay in the
    search from the largest terminal: there ours raises nothing and is complete."""
    if ours == theirs:
        if theirs[1] is None:
            return "same"
        return "cut" if theirs[1].startswith("path length") else "overflow"
    assert ours[1] is None and theirs[1].startswith("path length")
    assert ours[0] == complete()
    return "uncut"


def test_one_search_per_terminal_path_matches_the_search_from_both_ends():
    seen = Counter()
    for group, model in CASES:
        rng = random.Random(f"once-{group.name}-{model}")
        for _ in range(30):
            g = _random_graph(rng, group, model)
            n = len(g.vertices)
            subset = rng.sample(g.vertices, rng.randint(2, n))
            blocked = frozenset(rng.sample(g.vertices, rng.randint(0, 2)))
            weight, zero = rng.choice(_labels(group)), group.zero().value
            # (our filter, the oracle's): ours takes nonzero as a member test, the oracle keeps its flag
            queries = (({}, {}), ({"weight": weight}, {"weight": weight}),
                       ({"keep": lambda path, edges, end, w: w != zero}, {"nonzero": True}))
            complete = Limits(max_len=n, max_paths=10**6)
            for limits in (complete, Limits(max_len=2, max_paths=10**6), Limits(max_len=n, max_paths=2)):
                for kw, oracle_kw in queries:
                    ours = _result(lambda: enumerate_terminal_paths(g, limits=limits, **kw))
                    theirs = _result(lambda: oracle_enumerate_terminal_paths(g, limits=limits, **oracle_kw))
                    seen[_compare(ours, theirs,
                                  lambda: oracle_enumerate_terminal_paths(g, limits=complete, **oracle_kw))] += 1
                    if ours[0] and "weight" in kw:
                        seen["reversed"] += any(
                            vertex_key(p.vertices[0]) > vertex_key(p.vertices[-1]) for p in ours[0]
                        )
                ours = _result(lambda: _first_zero_path_disjoint_from(g, blocked, limits))
                theirs = _result(lambda: oracle_first_zero_path_disjoint_from(g, blocked, limits))
                seen[_compare(ours, theirs, lambda: oracle_first_zero_path_disjoint_from(g, blocked, complete))] += 1
                seen["zero path"] += bool(ours[0])
    # every outcome occurs: complete answers, both limits, the cut that no
    # longer raises, zero paths found, and weight members kept reversed
    assert min(seen[k] for k in ("same", "cut", "overflow", "uncut", "zero path", "reversed")) > 0


def test_a_cut_between_two_terminals_still_raises():
    z2 = Z(2)
    limits = Limits(max_len=2)
    # b, the largest terminal, starts no search; a-x-y-b is cut in the search from a
    edges = [("a", "x", 0, "a"), ("x", "y", 0, "x"), ("y", "b", 0, "y")]
    g = LabelledGraph.build(z2, DIRECTED, edges, ["a", "b"])
    with pytest.raises(LimitExceeded, match="^path length during exhaustive enumeration exceeds limit 2$"):
        enumerate_terminal_paths(g, limits=limits)
    with pytest.raises(LimitExceeded, match="^path length while certifying zero-path absence exceeds limit 2$"):
        _first_zero_path_disjoint_from(g, set(), limits)


def test_a_cut_off_only_the_largest_terminal_no_longer_raises():
    z2 = Z(2)
    limits = Limits(max_len=2)
    # a pendant path hangs off b, the largest terminal, and reaches no other
    edges = [("a", "b", 1, "a"), ("b", "p1", 0, "b"), ("p1", "p2", 0, "p1"), ("p2", "p3", 0, "p2")]
    g = LabelledGraph.build(z2, DIRECTED, edges, ["a", "b"])
    assert [p.vertices for p in enumerate_terminal_paths(g, limits=limits)] == [("a", "b")]
    assert _first_zero_path_disjoint_from(g, set(), limits) is None
    # the search from both ends cut that path in the search from b
    with pytest.raises(LimitExceeded):
        oracle_enumerate_terminal_paths(g, limits=limits)
    with pytest.raises(LimitExceeded):
        oracle_first_zero_path_disjoint_from(g, set(), limits)


def test_a_source_is_forbidden_to_the_searches_after_its_own():
    z2 = Z(2)
    g = LabelledGraph.build(z2, UNDIRECTED, [("a", "b", 0), ("a", "c", 0), ("b", "c", 0)], ["a", "b"])
    state = {"a": True, "b": True}
    found = [
        vs for vs, _, _ in search_paths(
            g, ["a", "b"], state, lambda *_: True, max_len=3, max_count=10, cut="path length",
        )
    ]
    # a may close a cycle in its own search; b's search no longer meets a
    assert found == [("a", "b"), ("a", "c", "a"), ("a", "c", "b"), ("b", "c", "b")]
    assert state == {"a": False, "b": False}  # each finished source stays forbidden in the caller's table


def test_a_search_leaves_the_callers_table_as_it_found_it():
    """Run to its end, closed after its first hit, or ended by LimitExceeded (too many paths or
    a cut path), a search takes its marks off the caller's table; each finished source alone
    stays forbidden."""
    rng = random.Random("caller-table")
    seen = Counter()
    for _ in range(80):
        group, model = rng.choice(CASES)
        g = _random_graph(rng, group, model)
        vertices, n = g.vertices, len(g.vertices)
        table = dict.fromkeys(rng.sample(vertices, rng.randint(1, n)), True)
        table.update(dict.fromkeys(rng.sample(vertices, rng.randint(0, 3)), False))
        sources = rng.sample(vertices, rng.randint(1, min(4, n)))
        at = []  # the source of each counted path

        def accept(path, edges, end, eid):
            at.append(path[0])
            return True

        def search(state, max_len=n, max_count=10**6):
            at.clear()
            return search_paths(g, sources, state, accept, max_len=max_len, max_count=max_count, cut="path length")

        def as_found(finished):
            return {**table, **dict.fromkeys(finished, False)}

        state = dict(table)
        paths = list(search(state))
        assert state == as_found(sources)
        if paths:
            state = dict(table)
            hits = search(state)
            first = next(hits)
            finished = sources[:sources.index(first[0][0])]
            seen["closed with marks on"] += state != as_found(finished)
            hits.close()
            assert state == as_found(finished)
            count = rng.randrange(len(paths))
            state = dict(table)
            with pytest.raises(LimitExceeded, match="enumerated paths"):
                list(search(state, max_count=count))
            assert state == as_found(sources[:sources.index(at[-1])])
            seen["overflow with marks on"] += len(paths[count][0]) > 2
        for max_len in (1, 2):
            state = dict(table)
            try:
                list(search(state, max_len=max_len))
            except LimitExceeded as exc:
                assert str(exc) == f"path length exceeds limit {max_len}"
                seen["cut"] += 1
            assert state == as_found(sources)
    assert min(seen[k] for k in ("closed with marks on", "overflow with marks on", "cut")) > 0, seen


# --- the state-table kernel's contract: search_paths against oracle_search_paths run in turn ---


def _oracle_in_turn(graph, sources, stop, accept, *, forbidden, max_len, max_count, member=None, in_turn=True):
    """search_paths built from oracle_search_paths: one oracle search per source, each finished
    source forbidden to the later ones (unless in_turn is false), the paths counted over all
    sources, and the member test run on each counted path."""
    found = 0
    truncated = False
    done: set = set()
    for source in sources:
        search = oracle_search_paths(
            graph, [source], stop, accept, forbidden=set(forbidden) | done,
            max_len=max_len, max_count=10**9, cut="path length",
        )
        while True:
            try:
                vs, es, w = next(search)
            except StopIteration:
                break
            except LimitExceeded:  # the oracle's cut, raised when its search ends
                truncated = True
                break
            found += 1
            if found > max_count:
                raise LimitExceeded("enumerated paths", max_count)
            if member is None or member(list(vs[:-1]), list(es[:-1]), vs[-1], w.value):
                yield vs, es, w.value
        if in_turn:
            done.add(source)
    if truncated:
        raise LimitExceeded("path length", max_len)


def _run(search, graph, sources, stop, accept, **kw):
    """Every yielded (vertices, edge ids, weight value), then the LimitExceeded text or None."""
    got = []
    try:
        for vs, es, w in search(graph, sources, stop, accept, **kw):
            got.append((vs, es, w))
    except LimitExceeded as exc:
        return got, str(exc)
    return got, None


def _members(group, rng):
    """A random member test on (prefix vertices, prefix edge ids, end, weight value), or None."""
    target = rng.choice(_labels(group)).value
    through = set()
    return rng.choice([
        None,
        lambda path, edges, end, w: w == target,
        lambda path, edges, end, w: not len(edges) % 2,
        lambda path, edges, end, w: end in through or not through.isdisjoint(path),
    ]), through


@pytest.mark.parametrize("group,model", CASES, ids=lambda c: getattr(c, "name", c))
def test_the_state_table_kernel_matches_the_oracle_searched_in_turn(group, model):
    rng = random.Random(f"table-{group.name}-{model}")
    seen = Counter()
    for _ in range(40):
        g = _random_graph(rng, group, model)
        vertices, n = g.vertices, len(g.vertices)
        stop = set(rng.sample(vertices, rng.randint(1, n)))
        forbidden = set(rng.sample(vertices, rng.randint(0, 3)))
        sources = rng.sample(vertices, rng.randint(1, min(4, n)))
        accept = rng.choice([lambda *_: True, oracle_from_smaller_end, lambda path, edges, end, eid: end != path[0]])
        member, through = _members(group, rng)
        through.update(rng.sample(vertices, 2))
        seen["stop and forbidden"] += bool(stop & forbidden)
        seen["source is a stop"] += any(a in stop for a in sources)
        seen["source is forbidden"] += any(a in forbidden for a in sources)
        seen["member test"] += member is not None

        def both(max_len, max_count):
            kw = dict(forbidden=forbidden, max_len=max_len, max_count=max_count)
            ours = _run(table_search_paths, g, sources, stop, accept, cut="path length", member=member, **kw)
            assert ours == _run(_oracle_in_turn, g, sources, stop, accept, member=member, **kw)
            return ours

        paths, error = both(n, 10**6)
        assert error is None
        # the paths a search counts, members or not
        total = len(_run(_oracle_in_turn, g, sources, stop, accept, forbidden=forbidden, max_len=n, max_count=10**6)[0])
        assert both(n, total) == (paths, None)
        if total:
            got, error = both(n, total - 1)
            assert error == f"enumerated paths exceeds limit {total - 1}"
            seen["count below"] += 1
            seen["non-members counted"] += len(paths) < total
        for max_len in (1, 2, 3):
            seen["cut"] += both(max_len, 10**6)[1] == f"path length exceeds limit {max_len}"
        # forbidding a finished source changes what later sources find
        free = _run(_oracle_in_turn, g, sources, stop, accept, forbidden=forbidden, max_len=n, max_count=10**6,
                    member=member, in_turn=False)
        seen["in turn"] += free != (paths, None)
    cases = ("stop and forbidden", "source is a stop", "source is forbidden", "member test", "count below",
             "non-members counted", "cut", "in turn")
    assert min(seen[k] for k in cases) > 0, seen


def _oracle_members(spec, limits):
    """PathFamilySpec.members from the search from both ends, filtered after the fact."""
    g = spec.graph
    if spec.kind == WEIGHT:
        return list(oracle_enumerate_terminal_paths(g, weight=spec.weight, limits=limits))
    if spec.kind == NONZERO:
        return list(oracle_enumerate_terminal_paths(g, nonzero=True, limits=limits))
    paths = oracle_enumerate_terminal_paths(g, limits=limits)
    if spec.kind == ODD:
        return [p for p in paths if len(p.edge_ids) % 2]
    trivial = [PathWitness((a,), (), g.group.zero())
               for a in sorted(g.terminals & spec.through, key=vertex_key)]
    return trivial + [p for p in paths if not spec.through.isdisjoint(p.vertices)]


@pytest.mark.parametrize("group,model", CASES, ids=lambda c: getattr(c, "name", c))
def test_family_members_raise_at_the_count_of_every_terminal_path(group, model):
    rng = random.Random(f"families-{group.name}-{model}")
    seen = Counter()
    for _ in range(25):
        g = _random_graph(rng, group, model)
        n = len(g.vertices)
        complete = Limits(max_len=n, max_paths=10**6)
        # every terminal path counts toward max_paths, member or not, as it did when the
        # families filtered the kernel's output
        total = len(oracle_enumerate_terminal_paths(g, limits=complete))
        specs = [
            PathFamilySpec(WEIGHT, g, weight=rng.choice(_labels(group))),
            PathFamilySpec(NONZERO, g),
            PathFamilySpec(ODD, g),
            PathFamilySpec(ABA, g, through=frozenset(rng.sample(g.vertices, 2))),
        ]
        for spec in specs:
            members = spec.members(complete)
            assert members == _oracle_members(spec, complete)
            assert spec.members(Limits(max_len=n, max_paths=max(total, 1))) == members
            if total > 1:
                with pytest.raises(LimitExceeded, match=f"^enumerated paths exceeds limit {total - 1}$"):
                    spec.members(Limits(max_len=n, max_paths=total - 1))
                seen["fewer members"] += sum(not p.trivial for p in members) < total
    assert seen["fewer members"] > 0


# S3 is nonabelian, so it lives in the directed model only
WALK_CASES = [
    (group, model)
    for group in (Z(2), Z(5), Z(2, 2), make_s3(), INTS)
    for model in (DIRECTED, UNDIRECTED)
    if group.is_abelian or model == DIRECTED
]


def _random_walk(rng, g):
    """A walk along g's edges, vertices and edges possibly repeated, maybe broken in one place."""
    incident = {v: [] for v in g.vertices}
    for e in g.edges:
        incident[e.u].append((e.eid, e.v))
        incident[e.v].append((e.eid, e.u))
    vertices = [rng.choice(g.vertices)]
    edge_ids = []
    for _ in range(rng.randint(0, 6)):
        if not incident[vertices[-1]]:
            break
        eid, nxt = rng.choice(incident[vertices[-1]])
        vertices.append(nxt)
        edge_ids.append(eid)
    fault = rng.choice(("none", "none", "vertex", "edge", "join", "length"))
    i = rng.randrange(len(vertices))
    if fault == "vertex":
        vertices[0] = "nowhere"
    elif fault == "edge" and edge_ids:
        edge_ids[i % len(edge_ids)] = "no-edge"
    elif fault == "join" and edge_ids:
        e = g.edge(edge_ids[i % len(edge_ids)])
        others = [v for v in g.vertices if v not in (e.u, e.v)]
        vertices[i % len(edge_ids) + 1] = rng.choice(others)
    elif fault == "length":
        del vertices[i:]
    return vertices, edge_ids


def _weight_or_error(fold, g, vertices, edge_ids):
    try:
        return fold(g, vertices, edge_ids)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("group,model", WALK_CASES, ids=lambda c: getattr(c, "name", c))
def test_walk_weight_folds_values_as_the_groupelem_oracle_does(group, model):
    rng = random.Random(f"walk-{group.name}-{model}")
    seen = Counter()
    for _ in range(40):
        g = _random_graph(rng, group, model)
        for _ in range(10):
            vertices, edge_ids = _random_walk(rng, g)
            ours = _weight_or_error(walk_weight, g, vertices, edge_ids)
            assert ours == _weight_or_error(oracle_walk_weight, g, vertices, edge_ids)
            seen[" ".join(ours[1].split()[:2]) if isinstance(ours, tuple) else "weight"] += 1
            # against the orientation: a step that enters its edge's tail
            seen["tail"] += any(g.edge(eid).tail == v for eid, v in zip(edge_ids, vertices[1:]) if eid in g._erank)
    # weights, each error message and tail entries all occur
    assert min(seen[k] for k in ("weight", "unknown vertex", "unknown edge", "walk must")) > 0
    assert sum(seen[k] for k in seen if k.startswith("edge ")) > 0
    assert (seen["tail"] > 0) == (model == DIRECTED)


@pytest.mark.parametrize("group,model", WALK_CASES, ids=lambda c: getattr(c, "name", c))
def test_a_reversed_witness_weighs_its_reversed_walk(group, model):
    # reversed takes the weight from the model, not from a second walk: the inverse in the
    # oriented model, the same weight in the orientation-free one
    rng = random.Random(f"reversed-{group.name}-{model}")
    walks = 0
    for _ in range(60):
        g = _random_graph(rng, group, model)
        for _ in range(10):
            vertices, edge_ids = _random_walk(rng, g)
            try:
                witness = PathWitness(tuple(vertices), tuple(edge_ids), walk_weight(g, vertices, edge_ids))
            except ValueError:
                continue
            back = witness.reversed(g)
            assert back.vertices == witness.vertices[::-1] and back.edge_ids == witness.edge_ids[::-1]
            assert back.weight == walk_weight(g, back.vertices, back.edge_ids)
            walks += 1
    assert walks >= 200


def _potential_graph(rng, group):
    """An undirected graph, often a forest, labelled by a random involution
    potential or at random, maybe with one label changed afterwards."""
    n = rng.randint(1, 7)
    vertices = [i if rng.random() < 0.5 else f"v{i}" for i in range(n)]
    possible = list(itertools.combinations(vertices, 2))
    pairs = rng.sample(possible, rng.randint(0, min(len(possible), 2 * n)))
    pairs += rng.sample(pairs, min(len(pairs), rng.randint(0, 2)))
    labels = _labels(group)
    involutions = [x for x in labels if x + x == group.zero()]
    phi = {v: rng.choice(involutions) for v in vertices}
    by_potential = rng.random() < 0.5
    edges = [
        Edge(k, u, v, phi[u] + phi[v] if by_potential else rng.choice(labels))
        for k, (u, v) in enumerate(pairs)
    ]
    if edges and rng.random() < 0.3:
        k = rng.randrange(len(edges))
        edges[k] = edges[k]._replace(label=rng.choice(labels))
    return LabelledGraph(group, UNDIRECTED, vertices, edges)


@pytest.mark.parametrize("group", [Z(2), Z(2, 2), Z(3), Z(4), INTS], ids=lambda c: c.name)
def test_potential_certificate_folds_values_as_the_groupelem_oracle_does(group):
    rng = random.Random(f"potential-{group.name}")
    seen = Counter()
    for _ in range(200):
        g = _potential_graph(rng, group)
        ours = _potential_certificate(g)
        theirs = oracle_potential_certificate(g)
        assert ours == theirs
        if ours is not None:
            assert list(ours.items()) == list(theirs.items())
            assert all(p.group is group for p in ours.values())
        seen[ours is None] += 1
    assert seen[True] > 0 and seen[False] > 0
