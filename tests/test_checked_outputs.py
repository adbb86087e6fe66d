"""Every graph command's output passes the benchmark's independent checker.

`benchmarks/checker.py` rebuilds groups, path weights, family membership and
naive packing and cover oracles from the JSON formats alone, and imports
nothing from gammapath.  It is loaded here by path and only read.  A fixed
seeded sample runs through `cli.run`: `pack`, `cover` and `duality` on the
four family kinds, `frame` in the directed model for k = 1..3, `blocks` in
the undirected model, `normalize` on 3-connected zero-cycle graphs, and the
three `gadget --verify` variants.  Every run must exit 0, 1 or 3 without an
internal error, and the checker must find no problem in an exit-0 output.
Vertex ids are ints only: the checker's `check_blocks` sorts ids with
`sorted`, which mixed ids break.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import pathlib
import random
from collections import Counter

from gammapath.cli import run
from gammapath.graphs import DIRECTED, UNDIRECTED
from gammapath.harness import make_s3, random_labelled_graph, random_three_connected

from util import Z

_PATH = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "checker.py"
_SPEC = importlib.util.spec_from_file_location("bench_checker", _PATH)
checker = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(checker)

LIMITS = ["--max-len", "8", "--max-paths", "2000"]
GADGETS = [
    ["--variant", "gamma", "--ell", "0"],
    ["--variant", "gamma-prime", "--group", '{"type":"cyclic_product","orders":[8]}', "--g1", "1", "--g2", "4"],
    ["--variant", "gamma-double-prime", "--group", '{"type":"cyclic_product","orders":[4]}', "--ell", "1", "--g", "2"],
]


def _family(rng: random.Random, kind: str, group, data: dict) -> str:
    if kind == "weight":
        return "weight:" + json.dumps(rng.choice(group.elements()).to_json())
    if kind == "aba":
        return "aba:" + ",".join(str(v) for v in rng.sample(data["vertices"], 2))
    return kind


def _runs(rng: random.Random):
    """(graph JSON or None, argv without the --graph file) of each run in the sample."""
    for i in range(24):
        group = [Z(2), Z(3), Z(4), make_s3()][i % 4]
        model = DIRECTED if not group.is_abelian or rng.random() < 0.5 else UNDIRECTED
        data = random_labelled_graph(rng, group, model, 8).to_json()
        family = _family(rng, ["weight", "nonzero", "odd", "aba"][i // 4 % 4], group, data)
        for command in ("pack", "cover", "duality"):
            yield data, [command, "--family", family, *LIMITS]
    # up to 10 vertices and 8 terminals, so that some frames pack two or three paths
    for i in range(48):
        group = [Z(2), Z(3), make_s3()][i % 3]
        data = random_labelled_graph(rng, group, DIRECTED, 10, 8).to_json()
        yield data, ["frame", "--k", str(i // 3 % 3 + 1), *LIMITS]
    for i in range(12):
        group = [Z(2), Z(3), Z(4)][i % 3]
        yield random_labelled_graph(rng, group, UNDIRECTED, 8).to_json(), ["blocks", *LIMITS]
        graph, _ = random_three_connected(rng, group, rng.randint(4, 8))
        yield graph.to_json(), ["blocks", *LIMITS]
    for i in range(12):
        graph, _ = random_three_connected(rng, [Z(2), Z(4), Z(2, 2)][i % 3], rng.randint(4, 8))
        yield graph.to_json(), ["normalize"]
    for params in GADGETS:
        for n in (2, 3):
            yield None, ["gadget", *params, "--n", str(n), "--verify"]


def _call(argv: list) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, json.loads(out.getvalue())


def test_every_graph_command_passes_the_independent_checker(tmp_path):
    path = tmp_path / "graph.json"
    seen = Counter()
    for data, argv in _runs(random.Random(2028)):
        if data is not None:
            path.write_text(json.dumps(data))
            argv = [argv[0], "--graph", str(path), *argv[1:]]
        code, out = _call(argv)
        assert code in (0, 1, 3) and out.get("error") != "internal", (argv, data, out)
        if code == 0:
            assert checker.check(data, out, argv) == [], (argv, data, out)
            seen[argv[0]] += 1
            seen["tau > 0"] += out.get("tau", 0) > 0
            seen["a block"] += bool(out.get("blocks"))
            seen["two frame paths"] += len(out.get("outcome", {}).get("paths") or ()) >= 2
            seen["frame cover"] += out.get("outcome", {}).get("kind") == "cover"
    # every command reaches the checker, with outputs that a wrong cover, block or packing would spoil
    assert all(seen[key] for key in ("pack", "cover", "duality", "frame", "blocks", "normalize", "gadget")), seen
    assert all(seen[key] for key in ("tau > 0", "a block", "two frame paths", "frame cover")), seen
