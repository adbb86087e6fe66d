"""Tests of the benchmark itself: python3 -m pytest benchmarks -q

They live outside tests/ so the program's own suite does not pay for them.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checker  # noqa: E402
import instances  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

CLI = run.import_cli()


def _files(workload: str, seed: int) -> dict[str, bytes]:
    out = {}
    for inst in run.prepare(CLI, workload, seed):
        if inst["graph"] is not None:
            with open(inst["run_argv"][inst["run_argv"].index("--graph") + 1], "rb") as fh:
                out[inst["id"]] = fh.read()
    return out


@pytest.mark.parametrize("workload", ["families", "structure"])
def test_same_seed_gives_identical_instance_files(workload):
    first = _files(workload, 7)
    assert first == _files(workload, 7)
    assert first != _files(workload, 8)


def test_workloads_have_enough_instances():
    assert len(instances.families_instances(7)) >= 100
    assert len(instances.structure_instances(7)) >= 100


@pytest.mark.parametrize("seed", [7, 1013])
@pytest.mark.parametrize("workload", ["families", "structure"])
def test_expected_answers_match(workload, seed):
    expected = run.load_expected(workload, seed)
    prepared = run.prepare(CLI, workload, seed)
    assert set(expected) == {inst["id"] for inst in prepared}
    outputs = {}
    checked = run.check_passes(prepared, [run.run_pass(CLI, prepared, outputs)], outputs, expected)
    assert checked["problems"] == []
    assert checked["decided"] == sum(1 for a in expected.values() if "verdict" in a)


def _tiny(seed):
    picks = {"gadget-gamma-n2", "duality-gamma-double-prime-n2", "random-000", "random-001"}
    return [i for i in instances.families_instances(seed) if i["id"] in picks]


def _metric_names(key: str) -> list[str]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[key]]


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_match_benchmark_json(monkeypatch, capsys, trace, key):
    monkeypatch.setitem(instances.WORKLOADS, "tiny", _tiny)
    assert run.main(["--workload", "tiny", "--seed", "7", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert sorted(result["metrics"]) == sorted(_metric_names(key))


def test_no_wrapper_remains_after_a_traced_run():
    import gammapath.harness
    import gammapath.packing

    originals = (gammapath.packing.max_packing, dict(gammapath.harness.ALL_CHECKS))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracing.leftover_wrappers()
        prepared = run.prepare(CLI, "families", 7)[:20]
        traced = run.run_pass(CLI, prepared, {})
    finally:
        tracer.uninstall()
    assert tracing.leftover_wrappers() == []
    assert gammapath.packing.max_packing is originals[0]
    assert gammapath.harness.ALL_CHECKS == originals[1]
    assert tracer.totals()["packing.max_packing"]["calls"] > 0
    assert tracer.spans
    untraced = run.run_pass(CLI, prepared, {})
    assert [r[2:] for r in untraced["results"]] == [r[2:] for r in traced["results"]]


def _first_decided(workload, command):
    for inst in run.prepare(CLI, workload, 7):
        if inst["run_argv"][0] != command:
            continue
        _, _, code, stdout = run.run_cli(CLI, inst["run_argv"])
        payload = run.verdict_payload(code, stdout)
        if payload is not None:
            yield inst, payload


def _undecided(result):
    start, end, _, _ = result
    return (start, end, "LimitExceeded", None)


def test_a_lost_verdict_is_a_mismatch():
    prepared = run.prepare(CLI, "structure", 7)
    expected = run.load_expected("structure", 7)
    outputs = {}
    one = run.run_pass(CLI, prepared, outputs)
    lost = next(i for i, inst in enumerate(prepared) if inst["class"] == "blocks")
    dense = next(i for i, inst in enumerate(prepared) if inst["class"] == "frame-dense24")
    results = list(one["results"])
    results[lost] = _undecided(results[lost])
    damaged = {**one, "results": results}
    for ref in (expected, None):
        checked = run.check_passes(prepared, [damaged, damaged], outputs, ref)
        assert checked["mismatches"] == 1
        assert checked["problems"] == [f"{prepared[lost]['id']}: no verdict (LimitExceeded) where one is expected"]
    # a reference that has no verdict, or a class allowed to end undecided, may stay so
    assert expected[prepared[dense]["id"]].keys() == {"undecided"}
    assert one["results"][dense][3] is None
    assert run.check_passes(prepared, [one], outputs, None)["mismatches"] == 0


def test_the_thread_count_is_not_taken_from_the_environment(monkeypatch):
    monkeypatch.setenv("GAMMAPATH_THREADS", "1")
    run.import_cli()
    assert "GAMMAPATH_THREADS" not in os.environ


def test_checker_rejects_wrong_certificates():
    inst, out = next(_first_decided("families", "duality"))
    assert checker.check(inst["graph"], out, inst["run_argv"]) == []
    bad = copy.deepcopy(out)
    bad["cover"]["vertices"] = bad["cover"]["vertices"][1:]
    assert checker.check(inst["graph"], bad, inst["run_argv"])
    bad = copy.deepcopy(out)
    bad["packing"]["paths"] = bad["packing"]["paths"] * 2
    bad["nu"] = len(bad["packing"]["paths"])
    assert checker.check(inst["graph"], bad, inst["run_argv"])


def test_checker_rejects_a_frame_cover_that_misses_a_zero_path():
    for inst, out in _first_decided("structure", "frame"):
        if out["outcome"]["kind"] == "packing":
            bad = copy.deepcopy(out)
            bad["outcome"] = {"kind": "cover", "vertices": [], "size": 0}
            assert checker.check(inst["graph"], bad, inst["run_argv"])
            return
    pytest.fail("no frame packing at seed 7")


def test_checker_weights_follow_orientation_and_order():
    table, identity = instances.s3_table()
    g = checker.Graph({
        "group": {"type": "cayley", "identity": identity, "table": table},
        "model": "directed",
        "vertices": [0, 1, 2],
        "A": [0, 2],
        "edges": [{"id": 0, "u": 0, "v": 1, "label": 1, "tail": 0},
                  {"id": 1, "u": 1, "v": 2, "label": 3, "tail": 2}],
    })
    inv3 = g.group.inverse[3]
    assert g.walk_weight((0, 1, 2), (0, 1)) == table[1][inv3]
    assert g.walk_weight((2, 1, 0), (1, 0)) == table[3][g.group.inverse[1]]


def test_suite_counts_match_the_group_census():
    # abelian groups of order <= 32 up to isomorphism: OEIS A000688 summed
    assert checker._abelian_group_count(32)[0] == 55
