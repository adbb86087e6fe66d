from __future__ import annotations

import itertools
import json
import math
import re
import types

import pytest

import gammapath.harness as harness
from gammapath import groups
from gammapath.errors import Limits, LimitExceeded, UsageError
from gammapath.graphs import UNDIRECTED, LabelledGraph, three_blocks
from gammapath.harness import RunConfig, run_suite
from gammapath.jsonio import dumps, graph_from_json

from util import Z


def test_failed_check_carries_reproducer_and_seed(monkeypatch):
    def broken(config):
        g = LabelledGraph.build(Z(2), UNDIRECTED, [("a", "b", 1)], ["a", "b"])
        return harness._fail("oracle-soundness", g, {"kind": "weight"})

    monkeypatch.setitem(harness.ALL_CHECKS, "oracle-soundness", broken)
    report = run_suite(RunConfig(seed=42), only=["oracle-soundness"])
    assert report["summary"]["fail"] == 1
    check = report["checks"][0]
    assert check["status"] == "FAIL"
    assert check["reproducer"]["seed"] == 42
    # the embedded instance replays: it parses back into the same graph
    instance = graph_from_json(check["reproducer"]["instance"])
    assert dumps(instance.to_json()) == dumps(check["reproducer"]["instance"])


def test_budget_exhaustion_skips(monkeypatch):
    ticks = itertools.count(0.0, 10.0)  # a clock that runs 10 s per reading
    monkeypatch.setattr(harness, "time", types.SimpleNamespace(monotonic=lambda: next(ticks)))
    report = run_suite(RunConfig(seed=1, limits=Limits(budget_s=1.0)), only=["cauchy-davenport"])
    assert report["checks"][0]["status"] == "SKIPPED"
    assert report["summary"]["skipped"] == 1


@pytest.mark.parametrize("field", ["max_len", "max_paths", "cycle_cap", "budget_s", "max_family"])
@pytest.mark.parametrize("value", [0, -1, math.nan])
def test_limits_reject_values_that_are_not_positive(field, value):
    with pytest.raises(ValueError, match="limits must be positive"):
        Limits(**{field: value})


@pytest.mark.parametrize("field", ["max_len", "max_paths", "cycle_cap", "max_family"])
@pytest.mark.parametrize("value", [True, 0.5, 3.0, "3", None])
def test_limits_take_their_counts_as_ints_only(field, value):
    with pytest.raises(ValueError, match=f"^limits must be positive and {field} an int, got {value!r}$"):
        Limits(**{field: value})


def test_limits_take_any_positive_real_budget():
    assert Limits(budget_s=0.5).budget_s == 0.5 and Limits(budget_s=3).budget_s == 3


# a bool is an int, so it is rejected by name; the rest are not reals at all
@pytest.mark.parametrize("value", [True, False, "5", None, 1 + 0j])
def test_limits_reject_a_bool_budget(value):
    with pytest.raises(ValueError, match=f"^limits must be positive and budget_s a real, got {re.escape(repr(value))}$"):
        Limits(budget_s=value)


@pytest.mark.parametrize("only", [[], ["nosuchcheck"], ["gadgets", "nosuchcheck"]])
def test_only_without_known_check_ids_is_a_usage_error(only):
    with pytest.raises(UsageError, match="check ids must be some of cauchy-davenport, "):
        run_suite(RunConfig(seed=0), only=only)


def test_internal_error_surfaces_as_fail(monkeypatch):
    def exploding(config):
        raise LimitExceeded("test probe", 1)

    monkeypatch.setitem(harness.ALL_CHECKS, "gadgets", exploding)
    report = run_suite(RunConfig(seed=0), only=["gadgets"])
    assert report["checks"][0]["status"] == "FAIL"
    assert "test probe" in report["checks"][0]["reproducer"]["error"]


def test_report_is_json_serializable():
    report = run_suite(RunConfig(seed=5, scale="small"), only=["oracle-soundness", "cauchy-davenport"])
    text = dumps(report)
    assert json.loads(text)["summary"]["fail"] == 0


def test_block_weight_enumeration_respects_limits():
    z2 = Z(2)
    g = LabelledGraph.build(
        z2,
        UNDIRECTED,
        [("a", "b", 0), ("a", "c", 0), ("b", "c", 0), ("a", "d", 0), ("b", "d", 0)],
        [],
    )
    with pytest.raises(LimitExceeded):
        three_blocks(g, Limits(max_paths=2))


@pytest.mark.parametrize("variant", ["gamma-prime", "gamma-double-prime"])
def test_gadget_check_binds_the_proven_tau(monkeypatch, variant):
    verify = harness.verify_gadget

    def wrong_tau(gadget, limits):
        checks = verify(gadget, limits)
        if gadget.variant == variant:
            checks["tau"] += 1
        return checks

    monkeypatch.setattr(harness, "verify_gadget", wrong_tau)
    report = harness.check_gadgets(RunConfig(limits=Limits(budget_s=1.0)))
    assert report["status"] == "FAIL"
    assert report["reproducer"]["variant"] == variant


def test_chain_check_fails_on_a_leaf_that_misses_a_weight(monkeypatch):
    walk = harness.multiset_masks

    def lossy(group, values, length):
        # the real walk, except that the leaf (1, 2, 2, 4) over Z/5 loses weight 3
        for deltas, mask in walk(group, values, length):
            yield deltas, mask & ~(1 << 3) if deltas == (1, 2, 2, 4) else mask

    monkeypatch.setattr(harness, "multiset_masks", lossy)
    report = run_suite(RunConfig(seed=7), only=["chain-exhaustive"])
    check = report["checks"][0]
    assert check["status"] == "FAIL"
    assert check["reproducer"] == {"p": 5, "deltas": [1, 2, 2, 4], "reason": "missed weight", "seed": 7}


def test_chain_check_counts_every_ordered_vector():
    report = harness.check_chain_exhaustive(RunConfig(seed=7))
    assert report["status"] == "PASS"
    assert [report["detail"][f"p{p}_vectors"] for p in (3, 5, 7)] == [2**2, 4**4, 6**6]


def test_the_random_checks_make_their_groups_once(monkeypatch):
    made = []
    init = groups.FiniteGroup.__init__

    def counting(self, *args, **kwargs):
        made.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(groups.FiniteGroup, "__init__", counting)
    counts = {}
    for scale in ("small", "full"):
        made.clear()
        report = run_suite(RunConfig(seed=7, scale=scale), only=["duality-random", "oracle-soundness"])
        assert report["summary"]["pass"] == 2
        counts[scale] = len(made)
    # the group lists are built before the instance loops, so the count does not grow with them
    assert counts["small"] == counts["full"]


def test_normalization_check_replays_the_shifts_it_was_given(monkeypatch):
    normalize = harness.normalize_to_zero

    def drops_a_shift(graph, limits):
        # the normalized graph is right, but the shift list loses its last entry
        shifts, normalized = normalize(graph, limits)
        return shifts[:-1], normalized

    monkeypatch.setattr(harness, "normalize_to_zero", drops_a_shift)
    report = harness.check_normalization(RunConfig(seed=7))
    assert report["status"] == "FAIL"
    assert report["reproducer"]["reason"] == "replay"
