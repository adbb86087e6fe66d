from __future__ import annotations

import itertools
import json
import math
import multiprocessing
import os
import queue
import re
import types
from concurrent.futures.process import BrokenProcessPool

import pytest

import gammapath.harness as harness
from gammapath import cli, groups
from gammapath.errors import InternalInvariantError, Limits, LimitExceeded, UsageError
from gammapath.graphs import UNDIRECTED, LabelledGraph, three_blocks
from gammapath.harness import RunConfig, run_suite
from gammapath.jsonio import dumps, graph_from_json

from util import Z


def test_failed_check_carries_reproducer_and_seed(monkeypatch):
    def broken(config):
        g = LabelledGraph.build(Z(2), UNDIRECTED, [("a", "b", 1)], ["a", "b"])
        return harness._fail(g, {"kind": "weight"})

    monkeypatch.setitem(harness.ALL_CHECKS, "oracle-soundness", broken)
    report = run_suite(RunConfig(seed=42), only=["oracle-soundness"])
    assert report["summary"]["fail"] == 1
    check = report["checks"][0]
    assert (check["id"], check["status"]) == ("oracle-soundness", "FAIL")
    assert check["reproducer"]["seed"] == 42
    # the embedded instance replays: it parses back into the same graph
    instance = graph_from_json(check["reproducer"]["instance"])
    assert dumps(instance.to_json()) == dumps(check["reproducer"]["instance"])


@pytest.mark.parametrize(
    "fields, detail",
    [
        ({"seed": True}, "seed must be an int, got True"),
        ({"seed": 1.0}, "seed must be an int, got 1.0"),
        ({"seed": "7"}, "seed must be an int, got '7'"),
        ({"scale": "smal"}, "scale must be 'small' or 'full', got 'smal'"),
        ({"limits": {"max_len": 3}}, "limits must be a Limits, got {'max_len': 3}"),
    ],
    ids=["bool-seed", "float-seed", "str-seed", "unknown-scale", "dict-limits"],
)
def test_run_config_checks_its_fields(fields, detail):
    # the suite would run on each of these and echo it in the report's config
    with pytest.raises(ValueError) as raised:
        RunConfig(**fields)
    assert str(raised.value) == detail
    assert RunConfig(seed=-3, scale="small", limits=Limits(max_len=3)).counts(100) == 10


def _without_elapsed(node):
    """The node with every `elapsed_s` taken out, at any depth."""
    if isinstance(node, dict):
        return {k: _without_elapsed(v) for k, v in node.items() if k != "elapsed_s"}
    return node


def _entry(report: dict, check_id: str) -> dict:
    return next(c for c in report["checks"] if c["id"] == check_id)


# with one usable CPU (or no fork) every call runs in-process, and there is no worker to test
needs_workers = pytest.mark.skipif(
    harness._usable_cpus() < 2 or harness._fork_context() is None, reason="the checks run in-process here"
)


@needs_workers
@pytest.mark.parametrize("seed", [7, 1013])
def test_the_workers_report_what_each_check_reports_in_process(seed):
    config = RunConfig(seed=seed)
    report = run_suite(config)
    assert multiprocessing.active_children() == []
    # one check is one worker, so each of these runs in-process
    alone = [run_suite(config, only=[check_id]) for check_id in sorted(harness.ALL_CHECKS)]
    assert [_without_elapsed(c) for c in report["checks"]] == [_without_elapsed(r["checks"][0]) for r in alone]
    assert all(r["config"] == report["config"] for r in alone)
    assert report["summary"] == {"pass": 9, "fail": 0, "skipped": 0}


@needs_workers
def test_checks_run_in_workers_unless_one_cpu_is_usable(monkeypatch):
    monkeypatch.setitem(harness.ALL_CHECKS, "gadgets", lambda config: harness._pass({"pid": os.getpid()}))
    assert _entry(run_suite(RunConfig()), "gadgets")["detail"]["pid"] != os.getpid()
    assert _entry(run_suite(RunConfig(), only=["gadgets", "reduction"]), "gadgets")["detail"]["pid"] != os.getpid()
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    assert _entry(run_suite(RunConfig()), "gadgets")["detail"]["pid"] == os.getpid()


needs_affinity = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")


@needs_affinity
def test_a_worker_is_moved_to_its_cpu_and_given_back_every_usable_one(monkeypatch):
    usable = os.sched_getaffinity(0)
    calls = []
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: calls.append((pid, set(cpus))))
    cpus = queue.SimpleQueue()
    cpus.put(max(usable))
    harness._place_worker(cpus)
    assert calls == [(0, {max(usable)}), (0, usable)]
    assert cpus.empty()


@needs_workers
@needs_affinity
def test_the_workers_keep_every_usable_cpu(monkeypatch):
    for check_id in harness.ALL_CHECKS:
        where = lambda config: harness._pass({"cpus": sorted(os.sched_getaffinity(0))})
        monkeypatch.setitem(harness.ALL_CHECKS, check_id, where)
    report = run_suite(RunConfig())
    assert [c["detail"]["cpus"] for c in report["checks"]] == [sorted(os.sched_getaffinity(0))] * 9


@needs_workers
def test_a_check_error_is_the_same_fail_in_a_worker(monkeypatch):
    def exploding(config):
        raise LimitExceeded("test probe", 1)

    # the workers are forked after the patch, so they run it too
    monkeypatch.setitem(harness.ALL_CHECKS, "gadgets", exploding)
    report = run_suite(RunConfig(seed=3))
    alone = run_suite(RunConfig(seed=3), only=["gadgets"])
    assert _without_elapsed(_entry(report, "gadgets")) == _without_elapsed(alone["checks"][0])
    assert alone["checks"][0]["reproducer"]["seed"] == 3
    assert report["summary"] == {"pass": 8, "fail": 1, "skipped": 0}


def test_a_spent_budget_skips_every_check_whichever_worker_runs_it():
    report = run_suite(RunConfig(seed=7, limits=Limits(budget_s=1e-9)))
    assert [c["id"] for c in report["checks"]] == sorted(harness.ALL_CHECKS)
    skipped = {"status": "SKIPPED", "detail": {"reason": "budget exhausted"}}
    assert [c for c in report["checks"] if c != {"id": c["id"], **skipped}] == []
    assert report["summary"] == {"pass": 0, "fail": 0, "skipped": 9}


@needs_workers
def test_a_worker_that_dies_ends_the_call_and_leaves_no_process(monkeypatch):
    monkeypatch.setitem(harness.ALL_CHECKS, "gadgets", lambda config: os._exit(3))
    with pytest.raises(InternalInvariantError, match="^a verify-suite worker died: ") as raised:
        run_suite(RunConfig(seed=7))
    assert isinstance(raised.value.__cause__, BrokenProcessPool)
    assert multiprocessing.active_children() == []


@needs_workers
def test_a_worker_that_dies_is_one_json_error_from_the_cli(monkeypatch, capsys):
    monkeypatch.setitem(harness.ALL_CHECKS, "gadgets", lambda config: os._exit(3))
    assert cli.run(["verify-suite", "--seed", "7"]) == 1
    payload = json.loads(capsys.readouterr().out)  # one JSON document, nothing after it
    assert payload["error"] == "internal" and "a verify-suite worker died: " in payload["detail"]
    assert multiprocessing.active_children() == []


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
    assert (report["checks"][0]["id"], report["checks"][0]["status"]) == ("gadgets", "FAIL")
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


# a wrong tau at every size of a variant, or at one cell only
@pytest.mark.parametrize(
    "variant, at_n",
    [("gamma-prime", None), ("gamma-double-prime", None), ("gamma", None), ("gamma-double-prime", 4)],
    ids=["gamma-prime", "gamma-double-prime", "gamma", "gamma-double-prime-n4"],
)
def test_gadget_check_binds_the_proven_tau(monkeypatch, variant, at_n):
    verify = harness.verify_gadget

    def wrong_tau(gadget, limits):
        checks = verify(gadget, limits)
        if gadget.variant == variant and at_n in (None, gadget.n):
            checks["tau"] += 1
        return checks

    monkeypatch.setattr(harness, "verify_gadget", wrong_tau)
    report = harness.check_gadgets(RunConfig(limits=Limits(budget_s=1.0)))
    assert report["status"] == "FAIL"
    assert {k: report["reproducer"][k] for k in ("variant", "n")} == {"variant": variant, "n": at_n or 2}


def test_gadget_check_binds_n4_at_any_budget():
    report = harness.check_gadgets(RunConfig(limits=Limits(budget_s=1.0)))
    assert report["status"] == "PASS"
    assert report["detail"]["subgroup_escape_n4"] == {"nu": 1, "tau": 2}


def test_a_self_check_error_in_a_gadget_cell_is_a_fail(monkeypatch):
    verify = harness.verify_gadget

    def fails_at_n4(gadget, limits):
        if gadget.n == 4:
            raise InternalInvariantError("test probe at n = 4")
        return verify(gadget, limits)

    monkeypatch.setattr(harness, "verify_gadget", fails_at_n4)
    report = run_suite(RunConfig(seed=7), only=["gadgets"])
    assert report["checks"][0]["status"] == "FAIL"
    assert report["checks"][0]["reproducer"] == {"error": "test probe at n = 4", "seed": 7}


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
    # in-process: a forked worker would count in its own copy of `made`
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    counts = {}
    for scale in ("small", "full"):
        made.clear()
        report = run_suite(RunConfig(seed=7, scale=scale), only=["duality-random", "oracle-soundness"])
        assert report["summary"]["pass"] == 2
        counts[scale] = len(made)
    # the group lists are built before the instance loops, so the count does not grow with them
    assert counts["small"] == counts["full"] > 0


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
