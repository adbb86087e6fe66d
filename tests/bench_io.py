"""Layer benchmark: the CLI boundary, graph JSON in and certificate JSON out.

Times `jsonio.graph_from_json` per edge on two graphs of the benchmark's
`structure` workload (seed 7, regenerated with `benchmarks/instances.py`):

- `path-pack`: the path of 1,500 edges over Z/2, directed;
- `frame-dense24-0`: the first 24-vertex dense frame graph over Z/7, directed,
  average degree 5.

Times `jsonio.dumps` per JSON node (every dict, list and scalar in the
payload) on the `blocks` payload of `blocks-000` and on the
`verify-suite --seed 7` report, each next to `json.dumps(sort_keys=True,
indent=2)` on the same payload, whose text it must equal.

The file name matches no `test_*.py` pattern, so the Tier-1 run does not
collect it.  Run from the root of a checkout:

    PYTHONPATH=src python -m pytest tests/bench_io.py --benchmark-json BENCH_io.json
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import pathlib
import sys

import pytest

from gammapath.cli import run
from gammapath.jsonio import dumps, graph_from_json

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks"))
import instances  # noqa: E402

GRAPHS = ("path-pack", "frame-dense24-0")
# fixed rounds keep BENCH_io.json small; each round times 10 calls
ROUNDS = {"rounds": 30, "iterations": 10, "warmup_rounds": 1}


@functools.lru_cache(maxsize=None)
def _structure() -> dict:
    return {inst["id"]: inst for inst in instances.structure_instances(7)}


def _cli_payload(argv: list) -> object:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert run(argv) == 0
    return json.loads(out.getvalue())


@functools.lru_cache(maxsize=None)
def _payload(name: str, tmp: str) -> object:
    if name == "blocks":
        path = pathlib.Path(tmp) / "blocks-000.json"
        path.write_text(json.dumps(_structure()["blocks-000"]["graph"]))
        return _cli_payload(["blocks", "--graph", str(path)])
    return _cli_payload(["verify-suite", "--seed", "7"])


def _nodes(x) -> int:
    if isinstance(x, dict):
        return 1 + sum(map(_nodes, x.values()))
    if isinstance(x, (list, tuple)):
        return 1 + sum(map(_nodes, x))
    return 1


def _per_item(benchmark, key: str, count: int) -> None:
    # --benchmark-disable runs the test once and keeps no stats
    if benchmark.stats is not None:
        benchmark.extra_info[key] = round(benchmark.stats.stats.median / count * 1e6, 3)


@pytest.mark.parametrize("name", GRAPHS)
def test_graph_from_json(benchmark, name):
    data = _structure()[name]["graph"]
    graph = benchmark.pedantic(graph_from_json, args=(data,), **ROUNDS)
    assert len(graph.edges) == len(data["edges"])
    benchmark.extra_info.update(vertices=len(graph.vertices), edges=len(graph.edges))
    _per_item(benchmark, "us_per_edge", len(graph.edges))


@pytest.mark.parametrize("render", ["jsonio.dumps", "json.dumps"])
@pytest.mark.parametrize("name", ["blocks", "verify-suite"])
def test_dumps(benchmark, tmp_path_factory, name, render):
    payload = _payload(name, str(tmp_path_factory.getbasetemp()))
    reference = json.dumps(payload, sort_keys=True, indent=2)
    fn = dumps if render == "jsonio.dumps" else functools.partial(json.dumps, sort_keys=True, indent=2)
    assert benchmark.pedantic(fn, args=(payload,), **ROUNDS) == reference
    nodes = _nodes(payload)
    benchmark.extra_info.update(nodes=nodes, characters=len(reference))
    _per_item(benchmark, "us_per_node", nodes)
