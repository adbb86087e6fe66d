"""Golden-output gate: the CLI output of every benchmark instance is pinned.

Regenerates the `families` and `structure` instances of the benchmark at
seeds 7 and 1013 with `benchmarks/instances.py` (imported, not changed),
writes their graph files under `tmp_path`, runs each one through
`gammapath.cli.run` and checks one sha256 per workload and seed over every
instance's (id, exit code, stdout).  An exception that escapes `run` counts
as its type name in place of the exit code.  A change that alters any
certificate, verdict or error payload on these 1,596 instances fails here.
The `verify-suite` report at both seeds must match the digest of the
benchmark's expected answers, taken by `benchmarks/run.py`'s `fingerprint`.
Every `structure` `frame` instance at both seeds (304 a seed) must give the
same exit code and stdout with `--debug`, which checks the forest's
invariants after every move, as without it.

The file name matches no `test_*.py` pattern, so the Tier-1 run does not
collect it.  Run from the root of a checkout:

    PYTHONPATH=src python -m pytest tests/golden_cli.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import sys

import pytest

from gammapath.cli import run

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks"))
import instances  # noqa: E402
import run as bench_run  # noqa: E402

# recorded before the one-search-per-path change, which left them unchanged
GOLDEN = {
    ("families", 7): "3c41d843990a5e337f304fb5b4a3572fb86a35989cb3098aa85c7cf3a96d1455",
    ("families", 1013): "4ed45e5f062dbb82730ec19ac6bf7cbf6679a4dce1cbb35e5d69433858260e1f",
    ("structure", 7): "3d2fffd908404f2c08445c025a9ca6e9cc8bd2729ff873590579eaee1d4d370b",
    ("structure", 1013): "49113f62bdbaba3f5026097f9d5f9ea4a44259dc28088020c272d30fc0c3dd69",
}


def _run(argv: list) -> tuple[object, str]:
    """(exit code or escaping exception's name, stdout) of one CLI call."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
    except Exception as exc:
        code = type(exc).__name__
    return code, out.getvalue()


def digest(workload: str, seed: int, directory: pathlib.Path) -> str:
    """sha256 over (id, exit code, stdout) of each instance, graph files written to directory."""
    out = hashlib.sha256()
    for inst in instances.WORKLOADS[workload](seed):
        graph = inst["graph"]
        if "graph_from" in inst:
            code, stdout = _run(inst["graph_from"])
            assert code == 0, inst["id"]
            graph = json.loads(stdout)["graph"]
        path = directory / f"{inst['id']}.json"
        if graph is not None:
            path.write_text(json.dumps(graph, sort_keys=True))
        code, stdout = _run([str(path) if a == instances.GRAPH else a for a in inst["argv"]])
        out.update(json.dumps([inst["id"], code, stdout]).encode() + b"\n")
    return out.hexdigest()


@pytest.mark.parametrize("workload,seed", sorted(GOLDEN))
def test_cli_output_matches_the_recorded_digest(workload, seed, tmp_path):
    assert digest(workload, seed, tmp_path) == GOLDEN[(workload, seed)]


@pytest.mark.parametrize("seed", [7, 1013])
def test_verify_suite_report_matches_the_expected_answer(seed):
    argv = instances.suite_instances(seed)[0]["argv"]
    code, stdout = _run(argv)
    assert code == 0
    expected = bench_run.load_expected("suite", seed)["suite"]["sha256"]
    assert bench_run.fingerprint(argv, json.loads(stdout)) == expected


@pytest.mark.parametrize("seed", [7, 1013])
def test_frame_debug_checks_change_no_output(seed, tmp_path):
    frames = [inst for inst in instances.WORKLOADS["structure"](seed) if inst["argv"][0] == "frame"]
    assert len(frames) == 304
    for inst in frames:
        path = tmp_path / f"{inst['id']}.json"
        path.write_text(json.dumps(inst["graph"], sort_keys=True))
        argv = [str(path) if a == instances.GRAPH else a for a in inst["argv"]]
        assert _run(argv + ["--debug"]) == _run(argv), inst["id"]
