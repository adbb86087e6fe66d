from __future__ import annotations

import hashlib

import pytest

from gammapath.errors import PreconditionFailed
from gammapath.gadgets import (
    build_integer_gadget,
    build_quotient_gadget,
    build_subgroup_escape_gadget,
    greedy_separated_sequence,
    verify_gadget,
)
from gammapath.graphs import DIRECTED, UNDIRECTED, enumerate_terminal_paths, walk_weight
from gammapath.groups import CyclicProduct
from gammapath.jsonio import dumps

from util import Z, incident


def test_greedy_sequence_for_zero_target():
    assert greedy_separated_sequence(3, 0) == [1, 2, 3]


def test_greedy_sequence_respects_exclusions():
    ell = 2
    seq = greedy_separated_sequence(5, ell)
    for k, gk in enumerate(seq):
        for gj in seq[:k]:
            assert gk not in (gj, ell - gj, gj + ell, gj - ell, gj + 2 * ell, gj - 2 * ell)


def test_integer_gadget_shape():
    gadget = build_integer_gadget(2, 0)
    g = gadget.graph
    assert len(g.vertices) == 2 * 2 + 2 * 2  # n^2 + 2n
    assert len(g.terminals) == 4
    # pendant adjacency: u_i only meets v{i}_1, w_i only meets v{i}_n
    for i in (1, 2):
        assert [x for _, x in incident(g, f"u{i}")] == [f"v{i}_1"]
        assert [x for _, x in incident(g, f"w{i}")] == [f"v{i}_2"]


def test_integer_gadget_straight_row_weight():
    n = 3
    gadget = build_integer_gadget(n, 5)
    g = gadget.graph
    for i in range(1, n + 1):
        j = n + 1 - i
        verts = [f"u{i}"] + [f"v{i}_{c}" for c in range(1, n + 1)] + [f"w{i}"]
        eids = []
        for a, b in zip(verts, verts[1:]):
            eids.append(next(e.eid for e in g.edges if {e.u, e.v} == {a, b}))
        w = walk_weight(g, tuple(verts), tuple(eids))
        # the straight row pairs u_i with w_i and carries ell - g_i + g_{n+1-i};
        # it has the target weight exactly on the middle row (i = n+1-i)
        assert (w == gadget.target) == (i == j)


def test_integer_gadget_directed_model():
    gadget = build_integer_gadget(2, 0, model=DIRECTED)
    g = gadget.graph
    for e in g.edges:
        if e.u.startswith("u"):
            assert e.tail == e.u
        if e.v.startswith("w"):
            assert e.tail == e.u  # oriented into the terminal
    hits = enumerate_terminal_paths(g, weight=gadget.target)
    assert hits


def test_integer_gadget_verification_n2():
    gadget = build_integer_gadget(2, 0)
    checks = verify_gadget(gadget)
    assert checks["no_two_disjoint"] and checks["nu"] == 1
    assert checks["antidiagonal_pairing"]
    assert checks["endpoints_cross"]
    assert checks["tau"] == 2 and checks["cover_at_least_n"]


def test_quotient_gadget_labels():
    z8 = Z(8)
    gadget = build_quotient_gadget(2, z8, 1, 4)
    labels = {}
    for e in gadget.graph.edges:
        key = tuple(sorted((e.u, e.v)))
        labels[key] = e.label.to_json()[0]
    assert labels[("u1", "v1_1")] == 1
    assert labels[("v1_2", "w1")] == 3  # g2 - g1
    assert labels[("v1_1", "v1_2")] == 4  # g2 on the top row
    assert labels[("v2_1", "v2_2")] == 0


def test_quotient_gadget_rejects_bad_pairs():
    z8 = Z(8)
    with pytest.raises(PreconditionFailed):
        build_quotient_gadget(2, z8, 0, 4)
    with pytest.raises(PreconditionFailed):
        build_quotient_gadget(2, z8, 2, 4)  # coset of 2 has order 2 in Z8/<4>


def test_quotient_gadget_verification():
    z8 = Z(8)
    # frozen by brute force: nu = 1 and tau = 1 at n in {2,3}.  Every zero path
    # needs a top-row edge, and the floor(n/2) even top-row vertices meet all of
    # them, while fewer vertices leave a path through one top-row edge, so
    # tau = floor(n/2) (the proof is in tests/test_acceptance.py, criterion 5)
    for n, expected_tau in ((2, 1), (3, 1)):
        checks = verify_gadget(build_quotient_gadget(n, z8, 1, 4))
        assert checks["nu"] == 1
        assert checks["uses_top_row"]
        assert checks["endpoints_cross"]
        assert checks["tau"] == expected_tau


def test_subgroup_escape_gadget_labels():
    z4 = Z(4)
    gadget = build_subgroup_escape_gadget(2, z4, 1, 2)
    labels = {}
    for e in gadget.graph.edges:
        key = tuple(sorted((e.u, e.v)))
        labels[key] = e.label.to_json()[0]
    assert labels[("u1", "v1_1")] == 3  # ell - g
    assert labels[("v1_1", "v1_2")] == 2  # g on the top row
    assert labels[("v1_2", "w1")] == 0
    assert labels[("v2_1", "v2_2")] == 0


def test_subgroup_escape_gadget_rejects_contained_target():
    z4 = Z(4)
    with pytest.raises(PreconditionFailed):
        build_subgroup_escape_gadget(2, z4, 2, 2)
    with pytest.raises(PreconditionFailed):
        build_subgroup_escape_gadget(2, z4, 1, 0)


def test_subgroup_escape_verification():
    z4 = Z(4)
    # frozen by brute force; see the quotient-gadget comment for why tau = 1
    for n, expected_tau in ((2, 1), (3, 1)):
        checks = verify_gadget(build_subgroup_escape_gadget(n, z4, 1, 2))
        assert checks["nu"] == 1
        assert checks["uses_top_row"]
        assert checks["endpoints_cross"]
        assert checks["tau"] == expected_tau


def test_quotient_gadget_coset_structure():
    # u-u weights live in 2*g1 + <g2>, w-w weights in <g2> - 2*g1, u-w in <g2>
    z8 = Z(8)
    from gammapath.groups import cyclic_subgroup

    gadget = build_quotient_gadget(3, z8, 1, 4)
    g = gadget.graph
    sub = cyclic_subgroup(z8.element(4))
    two_g1 = z8.element(2)
    all_paths = enumerate_terminal_paths(g)
    assert all_paths
    for p in all_paths:
        kinds = {v[0] for v in p.endpoints}
        if kinds == {"u"}:
            assert p.weight - two_g1 in sub and p.weight != z8.zero()
        elif kinds == {"w"}:
            assert p.weight + two_g1 in sub and p.weight != z8.zero()
        else:
            assert p.weight in sub


def test_subgroup_escape_never_hits_target_within_one_side():
    z4 = Z(4)
    gadget = build_subgroup_escape_gadget(3, z4, 1, 2)
    g = gadget.graph
    for p in enumerate_terminal_paths(g):
        kinds = {v[0] for v in p.endpoints}
        if kinds != {"u", "w"}:
            assert p.weight != gadget.target


def test_integer_gadget_directed_matches_undirected_counts():
    und = verify_gadget(build_integer_gadget(2, 0))
    dire = verify_gadget(build_integer_gadget(2, 0, model="directed"))
    assert (und["nu"], und["tau"]) == (dire["nu"], dire["tau"]) == (1, 2)
    assert dire["antidiagonal_pairing"]


def test_build_is_deterministic():
    a = build_subgroup_escape_gadget(3, Z(4), 1, 2)
    b = build_subgroup_escape_gadget(3, Z(4), 1, 2)
    assert dumps(a.to_json()) == dumps(b.to_json())
    c = build_integer_gadget(3, 0)
    d = build_integer_gadget(3, 0)
    assert dumps(c.to_json()) == dumps(d.to_json())


def test_gadget_sweep_digests():
    # every builder input of a wide sweep, hashed in order: the built gadget's
    # JSON or the error's type and message, and verify_gadget's report at n <= 3;
    # the digests were recorded from the per-variant builders this module had
    # before the one grid builder
    built, verified = hashlib.sha256(), hashlib.sha256()

    def record(digest, out):
        digest.update(dumps(out).encode() + b"\n")

    for orders in ((4,), (6,), (8,), (9,), (2, 4), (3, 3)):
        group = CyclicProduct(orders)
        pairs = [(a.to_json(), b.to_json()) for a in group.elements() for b in group.elements()]
        for build in (build_quotient_gadget, build_subgroup_escape_gadget):
            for a, b in pairs:
                for n in range(0, 6):
                    try:
                        gadget = build(n, group, a, b)
                    except (PreconditionFailed, ValueError) as exc:
                        record(built, f"{type(exc).__name__}: {exc}")
                        continue
                    record(built, gadget.to_json())
                    if n <= 3:
                        record(verified, verify_gadget(gadget))
    for ell in (0, 1, 3):
        for model in (UNDIRECTED, DIRECTED):
            for n in range(1, 6):
                record(built, build_integer_gadget(n, ell, model).to_json())
    assert built.hexdigest() == "8670d97c5c6fb84348bbdbea29919268e223cbe3daed99abf3b74ea075f7d5e9"
    assert verified.hexdigest() == "8bafa5ff523fa54c0607e17f67401c0eebc86c7068f8f1778628f0d6942dc20d"
