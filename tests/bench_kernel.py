"""Layer benchmark: the path kernel and the exact solvers on the largest gadgets.

Times two runs that push the frontier:

- the weight-1 terminal paths of the n = 5 subgroup-escape gadget over Z/4
  (35 vertices, 50 edges; 74,054 kept paths, so max_len and max_paths are
  raised above their defaults), reported per kept path;
- `gammapath duality --family odd` on the n = 4 integer gadget (2,162
  members, nu = tau = 4), through the CLI; the sha256 of its output must
  match the recorded one, so a changed certificate fails even an untimed run.

The file name matches no `test_*.py` pattern, so the Tier-1 run does not
collect it.  Run from the root of a checkout:

    PYTHONPATH=src python -m pytest tests/bench_kernel.py --benchmark-json BENCH_kernel.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

from gammapath.cli import run
from gammapath.errors import Limits
from gammapath.gadgets import build_integer_gadget, build_subgroup_escape_gadget
from gammapath.graphs import enumerate_terminal_paths

from util import Z

ODD_DUALITY_SHA256 = "c2b9c26bc9edde1ca811bb31be719981a43a3cae8c63077012585ef3402d7407"


def test_weight_one_paths_of_the_subgroup_escape_gadget(benchmark):
    graph = build_subgroup_escape_gadget(5, Z(4), 1, 2).graph
    limits = Limits(max_len=len(graph.vertices), max_paths=10**6)
    paths = benchmark.pedantic(
        enumerate_terminal_paths, args=(graph,), kwargs={"weight": 1, "limits": limits}, rounds=3
    )
    assert len(paths) == 74_054
    benchmark.extra_info.update(vertices=len(graph.vertices), edges=len(graph.edges), kept_paths=len(paths))
    # --benchmark-disable runs the test once and keeps no stats
    if benchmark.stats is not None:
        benchmark.extra_info["us_per_kept_path"] = round(benchmark.stats.stats.median / len(paths) * 1e6, 1)


def test_odd_duality_on_the_integer_gadget(benchmark, tmp_path):
    path = tmp_path / "gamma4.json"
    path.write_text(json.dumps(build_integer_gadget(4, 0).graph.to_json()))

    def duality() -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run(["duality", "--graph", str(path), "--family", "odd"])
        return code, out.getvalue()

    code, stdout = benchmark.pedantic(duality, rounds=3)
    payload = json.loads(stdout)
    assert (code, payload["nu"], payload["tau"]) == (0, 4, 4)
    sha256 = hashlib.sha256(stdout.encode()).hexdigest()
    # the certificates are part of the output contract: a solver change must not alter them
    assert sha256 == ODD_DUALITY_SHA256
    benchmark.extra_info.update(nu=payload["nu"], tau=payload["tau"], stdout_sha256=sha256)
