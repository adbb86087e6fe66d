from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gammapath.frame as frame
import gammapath.harness as harness
from gammapath.cli import _limits, build_parser, run
from gammapath.errors import DEFAULT_LIMITS, Limits
from gammapath.frame import frame_pack_or_cover
from gammapath.graphs import UNDIRECTED, DIRECTED, LabelledGraph

from util import Z, make_s3


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


def graph_file(tmp_path, graph, name="graph.json"):
    path = tmp_path / name
    path.write_text(json.dumps(graph.to_json()))
    return str(path)


def test_classify_positive(capsys):
    code, payload, _ = invoke(
        capsys, "classify", "--group", '{"type":"cyclic_product","orders":[4]}', "--ell", "2"
    )
    assert code == 0
    assert payload["ep"] is True


def test_classify_negative_exit_code(capsys):
    code, payload, _ = invoke(
        capsys, "classify", "--group", '{"type":"cyclic_product","orders":[8]}', "--ell", "4"
    )
    assert code == 1
    assert payload["ep"] is False


def test_classify_zero_family_default(capsys):
    code, payload, _ = invoke(
        capsys, "classify", "--group", '{"type":"cyclic_product","orders":[6]}'
    )
    assert code == 1
    assert payload["ell"] is None and payload["ep"] is False


def test_pack_and_cover(tmp_path, capsys):
    z2 = Z(2)
    g = LabelledGraph.build(
        z2,
        UNDIRECTED,
        [("a", "x", 0), ("x", "b", 0), ("c", "y", 0), ("y", "d", 0)],
        ["a", "b", "c", "d"],
    )
    path = graph_file(tmp_path, g)
    code, payload, _ = invoke(capsys, "pack", "--graph", path, "--family", "weight:0")
    assert code == 0
    assert payload["nu"] == 2
    assert len(payload["packing"]) == 2
    code, payload, _ = invoke(capsys, "cover", "--graph", path, "--family", "weight:0")
    assert code == 0
    assert payload["tau"] == 2


def test_family_parsing_aba(tmp_path, capsys):
    z2 = Z(2)
    g = LabelledGraph.build(
        z2, UNDIRECTED, [("a", "m", 0), ("m", "b", 0)], ["a", "b"]
    )
    path = graph_file(tmp_path, g)
    code, payload, _ = invoke(capsys, "duality", "--graph", path, "--family", "aba:m")
    assert code == 0
    assert payload["nu"] == 1 and payload["tau"] == 1
    assert payload["theorem_backed"] is True


def test_family_parsing_aba_tokens(tmp_path, capsys):
    # a token is an int only when it is ASCII decimal; anything else is a string id
    g = LabelledGraph.build(Z(2), UNDIRECTED, [("--5", 1, 1), (1, 3, 0)], ["--5", 3])
    path = graph_file(tmp_path, g)
    code, payload, _ = invoke(capsys, "pack", "--graph", path, "--family", "aba:--5")
    assert (code, payload["family"]["through"], payload["nu"]) == (0, ["--5"], 1)
    code, payload, _ = invoke(capsys, "pack", "--graph", path, "--family", "aba:1,3")
    assert (code, payload["family"]["through"]) == (0, [1, 3])
    # a superscript or non-ASCII digit is no vertex id here, not an int
    for token in ("\u00b9", "\u0663"):
        code, payload, _ = invoke(capsys, "pack", "--graph", path, "--family", f"aba:{token}")
        assert (code, payload["error"], payload["detail"]) == (1, "rejected", "through-set must consist of vertices")


def test_frame_cover_on_empty_family(tmp_path, capsys):
    z2 = Z(2)
    g = LabelledGraph.build(
        z2, DIRECTED, [("a", "x", 1, "a"), ("x", "b", 0, "x")], ["a", "b"]
    )
    path = graph_file(tmp_path, g)
    code, payload, _ = invoke(capsys, "frame", "--graph", path, "--k", "1")
    assert code == 0
    assert payload["outcome"]["kind"] == "cover"
    assert payload["outcome"]["vertices"] == []
    assert payload["checks"]["verified_empty"] is True


def test_frame_cover_is_checked_once(tmp_path, capsys, monkeypatch):
    calls = []
    check = frame.validate_frame_cover
    monkeypatch.setattr(frame, "validate_frame_cover", lambda *args: calls.append(args) or check(*args))
    g = LabelledGraph.build(Z(2), DIRECTED, [("a", "x", 1, "a"), ("x", "b", 0, "x")], ["a", "b"])
    code, payload, _ = invoke(capsys, "frame", "--graph", graph_file(tmp_path, g), "--k", "2")
    assert (code, payload["outcome"]["kind"], len(calls)) == (0, "cover", 1)
    assert payload["checks"] == {"bound": 12, "size": 0, "bound_ok": True, "verified_empty": True}


def test_frame_packing_with_audit(tmp_path, capsys):
    z2 = Z(2)
    g = LabelledGraph.build(
        z2, DIRECTED, [("a", "x", 1, "a"), ("x", "b", 1, "x")], ["a", "b"]
    )
    path = graph_file(tmp_path, g)
    code, payload, _ = invoke(capsys, "frame", "--graph", path, "--k", "1", "--debug")
    assert code == 0
    assert payload["outcome"]["kind"] == "packing"
    assert payload["audit"][0]["move"] == "new-component"


def test_long_path_is_bounded_by_max_len_not_recursion(tmp_path, capsys):
    # 5,000 edges labelled 1 over Z/2: the one terminal path has weight zero
    n = 5000
    g = LabelledGraph.build(Z(2), DIRECTED, [(i, i + 1, 1, i) for i in range(n)], [0, n])
    path = graph_file(tmp_path, g)
    code, payload, _ = invoke(
        capsys, "pack", "--graph", path, "--family", "weight:[0]", "--max-len", "6000"
    )
    assert code == 0
    assert payload["nu"] == 1
    code, payload, _ = invoke(capsys, "frame", "--graph", path, "--k", "1", "--max-len", "6000")
    assert code == 0
    assert payload["outcome"]["kind"] == "packing"
    assert len(payload["outcome"]["paths"]) == 1
    assert len(payload["outcome"]["paths"][0]["edges"]) == n


def test_frame_tree_walk_is_bounded_by_max_len_not_recursion(tmp_path, capsys):
    # a 1,200-edge zero spine from a to b, six pendant terminals near b:
    # extracting two paths walks the whole spine inside one tree
    n = 1200
    spine = ["a", *range(1, n), "b"]
    edges = [(u, v, 0, u) for u, v in zip(spine, spine[1:])]
    edges += [(n - 1 - j, f"t{j}", 1, n - 1 - j) for j in range(6)]
    g = LabelledGraph.build(Z(2), DIRECTED, edges, ["a", "b", *(f"t{j}" for j in range(6))])
    paths = frame_pack_or_cover(g, 2, Limits(max_len=2000)).outcome.paths
    code, payload, err = invoke(capsys, "frame", "--graph", graph_file(tmp_path, g), "--k", "2", "--max-len", "2000")
    assert (code, payload["outcome"]["kind"]) == (0, "packing"), err
    assert [p.to_json() for p in paths] == payload["outcome"]["paths"]
    assert len(paths) == 2
    assert not set(paths[0].vertices) & set(paths[1].vertices)
    for p in paths:
        p.validate(g)
        assert p.weight == Z(2).zero()


def test_chain_found_and_none(tmp_path, capsys):
    chain = {"group": {"type": "cyclic_product", "orders": [3]}, "core_weight": [1], "deltas": [[1], [1]]}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain))
    code, payload, _ = invoke(capsys, "chain", "--chain", str(path), "--target", "[0]")
    assert code == 0
    assert payload["verdict"] == "FOUND"
    assert payload["subset"] == [0, 1]

    chain = {"group": {"type": "cyclic_product", "orders": [4]}, "core_weight": [1], "deltas": [[2], [2]]}
    path.write_text(json.dumps(chain))
    code, payload, _ = invoke(capsys, "chain", "--chain", str(path), "--target", "[0]")
    assert code == 1
    assert payload["verdict"] == "NONE"
    assert payload["reachable"] == [[1], [3]]


def test_chain_embedded_splices_a_path(tmp_path, capsys):
    z5 = Z(5)
    g = LabelledGraph.build(
        z5,
        UNDIRECTED,
        [
            ("a", "m", 1), ("m", "n", 0), ("n", "b", 0),   # core, weight 1
            ("m", "d", 2), ("d", "n", 2),                   # detour, delta 4
        ],
        ["a", "b"],
    )
    payload = {
        "graph": g.to_json(),
        "core": {"vertices": ["a", "m", "n", "b"], "edges": [0, 1, 2]},
        "detours": [{"vertices": ["m", "d", "n"], "edges": [3, 4]}],
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(payload))
    code, out, _ = invoke(capsys, "chain", "--chain", str(path), "--target", "[0]")
    assert code == 0
    assert out["verdict"] == "FOUND"
    assert out["subset"] == [0]
    assert out["path"]["vertices"] == ["a", "m", "d", "n", "b"]
    assert out["path"]["weight"] == [0]


@pytest.mark.parametrize(
    "core, detail",
    [
        ({"edges": [0]}, "witness JSON needs the key 'vertices'"),
        ({"vertices": ["a", "m"], "edges": [9]}, "bad chain JSON: unknown edge 9"),
        # ids are read by exact type, as in graph JSON: a float or bool twin is not the id
        ({"vertices": ["a", "m", 1.0], "edges": [0, 1]}, "bad chain JSON: vertex ids must be ints or strings, got 1.0"),
        ({"vertices": ["a", "m", "b"], "edges": [0, True]}, "bad chain JSON: edge ids must be ints or strings, got True"),
        ({"vertices": ["a", None], "edges": [0]}, "bad chain JSON: vertex ids must be ints or strings, got None"),
        ({"vertices": ["a", "m"], "edges": [[0]]}, "bad chain JSON: edge ids must be ints or strings, got [0]"),
        # a "trivial" key is not read: the walk is its vertices and edges
        ({"vertices": ["a", "m", "b"], "edges": [], "trivial": True}, "bad chain JSON: walk must alternate vertices and edges"),
        ({"vertices": ["a"], "edges": [7, 8], "trivial": True}, "bad chain JSON: walk must alternate vertices and edges"),
    ],
    ids=[
        "core-without-vertices", "unknown-edge-id", "float-vertex-id", "bool-edge-id", "null-vertex-id", "list-edge-id",
        "trivial-core-of-three", "trivial-core-with-edges",
    ],
)
def test_embedded_chain_json_errors_are_usage_errors(tmp_path, capsys, core, detail):
    g = LabelledGraph.build(Z(5), UNDIRECTED, [("a", "m", 1), ("m", "b", 0)], ["a", "b"])
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"graph": g.to_json(), "core": core, "detours": []}))
    code, payload, err = invoke(capsys, "chain", "--chain", str(path), "--target", "[0]")
    assert (code, payload) == (2, {"error": "usage", "detail": detail})
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "core, detours, detail",
    [
        ({"vertices": ["a", "x", "a"], "edges": [0, 0]}, [], "chain core: witness revisits a vertex"),
        ({"vertices": ["x", "y", "b"], "edges": [1, 2]}, [], "chain core: witness endpoints are not terminals"),
        ({"vertices": ["x"], "edges": [], "trivial": True}, [], "chain core: witness endpoints are not terminals"),
        (
            {"vertices": ["a", "x", "y", "b"], "edges": [0, 1, 2]},
            [{"vertices": ["x", "d", "e", "d", "y"], "edges": [3, 4, 4, 6]}],
            "chain detour 0: witness revisits a vertex",
        ),
    ],
    ids=["core-revisits", "core-off-the-terminals", "trivial-core-off-the-terminals", "detour-revisits"],
)
def test_embedded_chain_witnesses_that_are_not_paths_are_rejected(tmp_path, capsys, core, detours, detail):
    # the core and its detours are input: a witness that fails its check is refused, not an internal error
    edges = [("a", "x", 1), ("x", "y", 0), ("y", "b", 0), ("x", "d", 1), ("d", "e", 0), ("e", "y", 0), ("d", "y", 0)]
    g = LabelledGraph.build(Z(5), UNDIRECTED, edges, ["a", "b"])
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"graph": g.to_json(), "core": core, "detours": detours}))
    code, payload, err = invoke(capsys, "chain", "--chain", str(path), "--target", "[0]")
    assert (code, payload) == (1, {"error": "rejected", "detail": detail})
    assert "Traceback" not in err


def test_a_trivial_core_is_the_trivial_path(tmp_path, capsys):
    # one vertex and no edges is the trivial path, with or without the "trivial" key
    g = LabelledGraph.build(Z(5), UNDIRECTED, [("a", "x", 1), ("x", "b", 0)], ["a", "b"])

    def chain(core, target):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"graph": g.to_json(), "core": core, "detours": []}))
        return invoke(capsys, "chain", "--chain", str(path), "--target", target)[:2]

    trivial = {"vertices": ["a"], "edges": [], "weight": [0], "trivial": True}
    for core in ({"vertices": ["a"], "edges": [], "trivial": True}, {"vertices": ["a"], "edges": []}):
        assert chain(core, "[0]") == (0, {"verdict": "FOUND", "target": [0], "subset": [], "path": trivial})
        assert chain(core, "[3]") == (1, {"verdict": "NONE", "reachable": [[0]]})
    # off the terminals it is refused at a target it cannot reach too
    assert chain({"vertices": ["x"], "edges": [], "trivial": True}, "[3]") == (
        1, {"error": "rejected", "detail": "chain core: witness endpoints are not terminals"}
    )


def test_an_embedded_chain_reads_its_ids_by_exact_type(tmp_path, capsys):
    # int ids; the core 0-1-2-3 weighs 0 and its detour 1-4-2 shifts it by 2 over Z/3
    edges = [(0, 1, 0), (1, 2, 0), (2, 3, 0), (1, 4, 1), (4, 2, 1)]
    g = LabelledGraph.build(Z(3), UNDIRECTED, edges, [0, 3])
    detour = {"vertices": [1, 4, 2], "edges": [3, 4]}

    def chain(core, detours=(detour,)):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"graph": g.to_json(), "core": core, "detours": list(detours)}))
        return invoke(capsys, "chain", "--chain", str(path), "--target", "[2]")

    code, payload, _ = chain({"vertices": [0, 1, 2, 3], "edges": [0, 1, 2]})
    assert code == 0 and payload["path"]["vertices"] == [0, 1, 4, 2, 3]
    code, payload, _ = chain({"vertices": [0, 1.0, 2, 3], "edges": [0, True, 2]})
    assert (code, payload) == (2, {"error": "usage", "detail": "bad chain JSON: vertex ids must be ints or strings, got 1.0"})
    code, payload, _ = chain({"vertices": [0, 1, 2, 3], "edges": [0, True, 2]})
    assert (code, payload) == (2, {"error": "usage", "detail": "bad chain JSON: edge ids must be ints or strings, got True"})
    # a detour is read the same way
    code, payload, _ = chain({"vertices": [0, 1, 2, 3], "edges": [0, 1, 2]}, [{"vertices": [1, 4, 2.0], "edges": [3, 4]}])
    assert (code, payload) == (2, {"error": "usage", "detail": "bad chain JSON: vertex ids must be ints or strings, got 2.0"})


def test_limit_exceeded_exit_code_and_json(tmp_path, capsys):
    import itertools

    z2 = Z(2)
    edges = [(u, v, 0) for u, v in itertools.combinations(range(8), 2)]
    g = LabelledGraph.build(z2, UNDIRECTED, edges, [0, 1, 2, 3])
    code, payload, err = invoke(
        capsys,
        "pack", "--graph", graph_file(tmp_path, g), "--family", "weight:0",
        "--max-paths", "5",
    )
    assert code == 3
    assert payload["error"] == "limit-exceeded"
    assert err


def test_gadget_build_and_verify(capsys):
    code, payload, _ = invoke(
        capsys,
        "gadget",
        "--variant", "gamma-double-prime",
        "--n", "2",
        "--group", '{"type":"cyclic_product","orders":[4]}',
        "--ell", "1",
        "--g", "2",
        "--verify",
    )
    assert code == 0
    assert payload["verify"]["nu"] == 1
    assert payload["verify"]["uses_top_row"] is True
    assert len(payload["graph"]["vertices"]) == 8


def test_gadget_gamma_over_integers(capsys):
    code, payload, _ = invoke(capsys, "gadget", "--variant", "gamma", "--n", "2", "--ell", "0")
    assert code == 0
    assert payload["params"]["sequence"] == [1, 2]
    assert payload["graph"]["group"] == {"type": "integers"}
    code, directed_payload, _ = invoke(
        capsys, "gadget", "--variant", "gamma", "--n", "2", "--ell", "0", "--model", "directed"
    )
    assert code == 0
    assert all("tail" in e for e in directed_payload["graph"]["edges"])


def test_gadget_ell_is_read_as_every_element_token_is(capsys):
    # an element of the integers: an int or its decimal string, as JSON; JSON
    # allows the whitespace around a number, as it does for --family weight:
    # and classify --ell
    outputs = {}
    for token in ("3", '"3"', " 3", "-2", '"-2"'):
        code, payload, _ = invoke(capsys, "gadget", "--variant", "gamma", "--n", "2", "--ell", token)
        assert code == 0
        outputs[token] = payload
    assert outputs["3"]["params"]["ell"] == "3" and outputs["-2"]["params"]["ell"] == "-2"
    assert outputs["3"] == outputs['"3"'] == outputs[" 3"]
    assert outputs["-2"] == outputs['"-2"']


Z8 = '{"type":"cyclic_product","orders":[8]}'


@pytest.mark.parametrize(
    "variant, params, unread",
    [
        ("gamma", ["--group", Z8, "--g", "1", "--g1", "1", "--g2", "4"], "--g, --g1, --g2, --group"),
        ("gamma-prime", ["--group", Z8, "--g1", "1", "--g2", "4", "--model", "directed"], "--model"),
        ("gamma-prime", ["--group", Z8, "--g1", "1", "--g2", "4", "--ell", "1", "--g", "2"], "--ell, --g"),
        ("gamma-double-prime", ["--group", Z8, "--ell", "1", "--g", "2", "--g1", "1"], "--g1"),
        ("gamma-double-prime", ["--group", Z8, "--ell", "1", "--g", "2", "--model", "undirected"], "--model"),
    ],
)
def test_gadget_rejects_the_flags_its_variant_does_not_read(capsys, variant, params, unread):
    code, payload, _ = invoke(capsys, "gadget", "--variant", variant, "--n", "2", *params)
    assert (code, payload) == (2, {"error": "usage", "detail": f"{variant} does not read {unread}"})


@pytest.mark.parametrize(
    "params, detail",
    [
        (["--variant", "gamma-prime"], "gamma-prime needs --group, --g1, --g2"),
        (["--variant", "gamma-prime", "--group", Z8, "--g1", "1"], "gamma-prime needs --g2"),
        (["--variant", "gamma-double-prime", "--group", Z8], "gamma-double-prime needs --ell, --g"),
        (["--variant", "gamma-double-prime", "--group", Z8, "--g", "2"], "gamma-double-prime needs --ell"),
        (["--variant", "gamma", "--ell", "x"], "bad element JSON: invalid literal for Z: 'x'"),
        (["--variant", "gamma", "--ell", "1.5"], "bad element JSON: invalid literal for Z: 1.5"),
        (["--variant", "gamma", "--ell", " 1_0"], "bad element JSON: invalid literal for Z: ' 1_0'"),
        (["--variant", "gamma", "--ell", '" 1"'], "bad element JSON: invalid literal for Z: ' 1'"),
        (["--variant", "gamma", "--ell", "true"], "bad element JSON: invalid literal for Z: True"),
    ],
)
def test_a_missing_or_malformed_gadget_flag_is_a_usage_error(capsys, params, detail):
    code, payload, err = invoke(capsys, "gadget", "--n", "2", *params)
    assert (code, payload) == (2, {"error": "usage", "detail": detail})
    assert err == f"usage error: {detail}\n"


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_an_unwritable_out_file_is_a_usage_error(tmp_path, capsys, where):
    out = tmp_path / "missing" / "x.json" if where == "missing directory" else tmp_path
    code, payload, err = invoke(capsys, "classify", "--group", Z8, "--out", str(out))
    assert code == 2
    assert payload["error"] == "usage" and payload["detail"].startswith(f"cannot write {out}: ")
    assert err == f"usage error: {payload['detail']}\n"


def test_the_module_entry_point_exits_with_the_run_code():
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(frame.__file__))}

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "gammapath.cli", *argv], capture_output=True, text=True, env=env)

    done = cli("classify", "--group", '{"type":"cyclic_product","orders":[4]}', "--ell", "2")
    assert (done.returncode, json.loads(done.stdout)["ep"]) == (0, True)
    done = cli("gadget", "--variant", "gamma-prime", "--n", "2")
    assert done.returncode == 2
    assert json.loads(done.stdout) == {"error": "usage", "detail": "gamma-prime needs --group, --g1, --g2"}


def test_bipartite_verdicts(tmp_path, capsys):
    z2 = Z(2)
    good = LabelledGraph.build(
        z2, UNDIRECTED, [("a", "b", 1), ("b", "c", 1), ("a", "c", 0)], []
    )
    code, payload, _ = invoke(capsys, "bipartite", "--graph", graph_file(tmp_path, good))
    assert code == 0 and payload["gamma_bipartite"] is True
    bad = LabelledGraph.build(
        z2, UNDIRECTED, [("a", "b", 1), ("b", "c", 0), ("a", "c", 0)], []
    )
    code, payload, _ = invoke(capsys, "bipartite", "--graph", graph_file(tmp_path, bad, "g2.json"))
    assert code == 1 and payload["gamma_bipartite"] is False


def test_normalize_error_path(tmp_path, capsys):
    z2 = Z(2)
    import itertools

    pairs = list(itertools.combinations("abcd", 2))
    bad = LabelledGraph.build(z2, UNDIRECTED, [(u, v, 1) for u, v in pairs], [])
    code, payload, err = invoke(capsys, "normalize", "--graph", graph_file(tmp_path, bad))
    assert code == 1
    assert "error" in payload
    assert err


def test_normalize_success(tmp_path, capsys):
    z2 = Z(2)
    import itertools

    phi = {"a": 1, "b": 0, "c": 0, "d": 0}
    pairs = list(itertools.combinations("abcd", 2))
    g = LabelledGraph.build(
        z2, UNDIRECTED, [(u, v, (phi[u] + phi[v]) % 2) for u, v in pairs], []
    )
    code, payload, _ = invoke(capsys, "normalize", "--graph", graph_file(tmp_path, g))
    assert code == 0
    assert all(e["label"] == [0] for e in payload["graph"]["edges"])


def test_blocks_output(tmp_path, capsys):
    z2 = Z(2)
    g = LabelledGraph.build(
        z2,
        UNDIRECTED,
        [("a", "b", 0), ("a", "c", 0), ("b", "c", 0), ("a", "d", 0), ("b", "d", 0)],
        [],
    )
    code, payload, _ = invoke(capsys, "blocks", "--graph", graph_file(tmp_path, g))
    assert code == 0
    assert [b["vertices"] for b in payload["blocks"]] == [["a", "b", "c"], ["a", "b", "d"]]


def test_verify_suite_small(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, payload, err = invoke(
        capsys,
        "verify-suite",
        "--seed", "7",
        "--scale", "small",
        "--budget", "60",
        "--only", "cauchy-davenport", "oracle-soundness", "gadgets",
        "--out", str(out),
    )
    assert code == 0
    assert payload["summary"]["fail"] == 0
    assert {c["id"] for c in payload["checks"]} == {"cauchy-davenport", "oracle-soundness", "gadgets"}
    assert json.loads(out.read_text()) == payload
    assert "cauchy-davenport: PASS" in err


def test_verify_suite_deterministic(capsys):
    code1, payload1, _ = invoke(
        capsys, "verify-suite", "--seed", "3", "--scale", "small",
        "--only", "oracle-soundness",
    )
    code2, payload2, _ = invoke(
        capsys, "verify-suite", "--seed", "3", "--scale", "small",
        "--only", "oracle-soundness",
    )
    assert code1 == code2 == 0
    c1 = payload1["checks"][0]
    c2 = payload2["checks"][0]
    assert c1["detail"] == c2["detail"]


def test_verify_suite_budget_reaches_the_checks(capsys, monkeypatch):
    ticks = itertools.count(0.0, 10.0)  # a clock that runs 10 s per reading
    monkeypatch.setattr(harness, "time", types.SimpleNamespace(monotonic=lambda: next(ticks)))
    code, payload, err = invoke(capsys, "verify-suite", "--budget", "5", "--only", "cauchy-davenport")
    assert code == 0
    assert payload["config"]["budget_s"] == 5
    assert [c["status"] for c in payload["checks"]] == ["SKIPPED"]
    assert "cauchy-davenport: SKIPPED" in err


@pytest.mark.parametrize("budget", ["-1", "0", "nan"])
def test_verify_suite_rejects_a_budget_that_is_not_positive(capsys, budget):
    code, payload, _ = invoke(capsys, "verify-suite", "--budget", budget, "--only", "cauchy-davenport")
    assert (code, payload) == (1, {"error": "rejected", "detail": "limits must be positive"})


@pytest.mark.parametrize("only", [["--only"], ["--only", "nosuchcheck"], ["--only", "gadgets", "nosuchcheck"]])
def test_verify_suite_without_known_check_ids_is_a_usage_error(capsys, only):
    code, payload, _ = invoke(capsys, "verify-suite", *only)
    assert (code, payload["error"]) == (2, "usage")
    assert payload["detail"].startswith("check ids must be some of cauchy-davenport, ")


def test_usage_error_exit_code(capsys):
    code = run(["pack", "--family", "weight:0"])  # missing --graph
    capsys.readouterr()
    assert code == 2


def test_stdout_is_json_on_stdin_graph(tmp_path, capsys, monkeypatch):
    import io

    z2 = Z(2)
    g = LabelledGraph.build(z2, UNDIRECTED, [("a", "b", 0)], ["a", "b"])
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(g.to_json())))
    code, payload, _ = invoke(capsys, "pack", "--graph", "-", "--family", "weight:0")
    assert code == 0
    assert payload["nu"] == 1


@pytest.mark.parametrize("missing", ["edges", "group", "model", "vertices"])
def test_graph_json_without_a_key_is_a_usage_error(tmp_path, capsys, missing):
    data = LabelledGraph.build(Z(2), UNDIRECTED, [("a", "b", 0)], ["a", "b"]).to_json()
    del data[missing]
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(data))
    code, payload, err = invoke(capsys, "blocks", "--graph", str(path))
    assert code == 2
    assert payload == {"error": "usage", "detail": f"graph JSON needs the key {missing!r}"}
    assert "Traceback" not in err


def _set_field(data, where, value):
    *parents, last = where
    for key in parents:
        data = data[key]
    data[last] = value


@pytest.mark.parametrize(
    "where, value, detail",
    [
        (("vertices",), [[1], 2], "bad graph JSON: vertex ids must be ints or strings"),
        (("group", "orders"), "ab", "bad group JSON: 'orders' must be a list of ints"),
        (("edges", 0, "label"), "zz", "bad graph JSON: invalid literal"),
    ],
    ids=["unhashable-vertex", "string-orders", "string-label"],
)
def test_graph_json_with_a_wrongly_typed_value_is_a_usage_error(tmp_path, capsys, where, value, detail):
    data = LabelledGraph.build(Z(2), UNDIRECTED, [("a", "b", 0)], ["a", "b"]).to_json()
    _set_field(data, where, value)
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(data))
    code, payload, err = invoke(capsys, "blocks", "--graph", str(path))
    assert (code, payload["error"]) == (2, "usage")
    assert payload["detail"].startswith(detail)
    assert "Traceback" not in err


_ALIKE_LABELS = [[1], 1, 1.0, True, "1"]


@pytest.mark.parametrize("second", _ALIKE_LABELS, ids=repr)
@pytest.mark.parametrize("first", _ALIKE_LABELS, ids=repr)
def test_labels_that_hash_alike_are_each_read_as_on_their_own(tmp_path, capsys, first, second):
    """Over Z/2, 1 reads as [1] and 1.0, True and "1" are usage errors, whichever label came first."""
    data = LabelledGraph.build(Z(2), UNDIRECTED, [("a", "b", 1), ("b", "c", 1)], ["a", "c"]).to_json()
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(data))
    expected = invoke(capsys, "bipartite", "--graph", str(path))
    data["edges"][0]["label"], data["edges"][1]["label"] = first, second
    path.write_text(json.dumps(data))
    code, payload, err = invoke(capsys, "bipartite", "--graph", str(path))
    bad = [label for label in (first, second) if type(label) not in (list, int)]
    if bad:
        assert (code, payload) == (2, {"error": "usage", "detail": f"bad graph JSON: invalid literal for Z/2: {bad[0]!r}"})
        assert "Traceback" not in err
    else:
        assert (code, payload, err) == expected


_Z4 = {"type": "cyclic_product", "orders": [4]}
_INTEGERS = {"type": "integers"}
_GROUPS = {"Z/4": _Z4, "cayley[3]": {"type": "cayley", "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}, "Z": _INTEGERS}


def _one_edge(group, label, model=UNDIRECTED, **edge) -> dict:
    entry = {"id": 0, "u": 0, "v": 1, "label": label, **edge}
    return {"group": group, "model": model, "vertices": [0, 1], "A": [0, 1], "edges": [entry]}


def _pack(tmp_path, capsys, data, family="nonzero"):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(data))
    return invoke(capsys, "pack", "--graph", str(path), "--family", family)


@pytest.mark.parametrize(
    "name, label",
    [
        ("Z/4", [2.7]), ("Z/4", [1.0]), ("Z/4", [True]), ("Z/4", True), ("Z/4", "1"),
        ("cayley[3]", 2.7), ("cayley[3]", True),
        ("Z", 2.7), ("Z", True), ("Z", " 1"), ("Z", "1_0"),
    ],
    ids=repr,
)
def test_a_label_is_read_by_its_exact_json_type(tmp_path, capsys, name, label):
    code, payload, err = _pack(tmp_path, capsys, _one_edge(_GROUPS[name], label))
    assert (code, payload) == (2, {"error": "usage", "detail": f"bad graph JSON: invalid literal for {name}: {label!r}"})
    assert "Traceback" not in err


def test_a_float_label_is_not_packed_as_its_integer_part(tmp_path, capsys):
    code, payload, _ = _pack(tmp_path, capsys, _one_edge(_Z4, [2]), "weight:[2]")
    assert (code, payload["nu"]) == (0, 1)
    code, payload, _ = _pack(tmp_path, capsys, _one_edge(_Z4, [2.7]), "weight:[2]")
    assert (code, payload["error"]) == (2, "usage")
    code, payload, _ = _pack(tmp_path, capsys, _one_edge(_Z4, [2]), "weight:[2.7]")
    assert (code, payload) == (2, {"error": "usage", "detail": "bad element JSON: invalid literal for Z/4: [2.7]"})


@pytest.mark.parametrize("group, label, same", [(_Z4, 1, [1]), (_INTEGERS, "-3", -3)], ids=["Z/4", "Z"])
def test_the_written_label_forms_still_read_as_before(tmp_path, capsys, group, label, same):
    ours = _pack(tmp_path, capsys, _one_edge(group, label))
    assert ours == _pack(tmp_path, capsys, _one_edge(group, same))
    assert ours[0] == 0


@pytest.mark.parametrize(
    "data, detail",
    [
        (_one_edge(_Z4, [1], v=1.0), "bad graph JSON: vertex ids must be ints or strings, got 1.0"),
        (_one_edge(_Z4, [1], v=True), "bad graph JSON: vertex ids must be ints or strings, got True"),
        # an endpoint is read by type before it is looked up, so an unhashable or missing one is named too
        (_one_edge(_Z4, [1], u=[0]), "bad graph JSON: vertex ids must be ints or strings, got [0]"),
        (_one_edge(_Z4, [1], v=5.0), "bad graph JSON: vertex ids must be ints or strings, got 5.0"),
        (_one_edge(_Z4, [1], DIRECTED, tail=1.0), "bad graph JSON: vertex ids must be ints or strings, got 1.0"),
        ({**_one_edge(_Z4, [1]), "A": [0, 1.0]}, "bad graph JSON: vertex ids must be ints or strings, got 1.0"),
        ({**_one_edge(_Z4, [1]), "A": [0, True]}, "bad graph JSON: vertex ids must be ints or strings, got True"),
        ({**_one_edge(_Z4, [1]), "vertices": "01"}, "graph JSON key 'vertices' must be a list"),
        ({**_one_edge(_Z4, [1]), "edges": {}}, "graph JSON key 'edges' must be a list"),
        ({**_one_edge(_Z4, [1]), "A": "01"}, "graph JSON key 'A' must be a list"),
    ],
    ids=["float-endpoint", "bool-endpoint", "list-endpoint", "float-endpoint-off-the-vertices", "float-tail",
         "float-terminal", "bool-terminal", "string-vertices", "object-edges", "string-terminals"],
)
def test_an_id_that_is_not_an_int_or_a_string_is_a_usage_error(tmp_path, capsys, data, detail):
    code, payload, err = _pack(tmp_path, capsys, data)
    assert (code, payload) == (2, {"error": "usage", "detail": detail})
    assert "Traceback" not in err


def test_element_token_of_the_wrong_shape_is_a_usage_error(capsys):
    code, payload, _ = invoke(
        capsys, "classify", "--group", '{"type":"cyclic_product","orders":[4]}', "--ell", "[[1]]"
    )
    assert (code, payload["error"]) == (2, "usage")
    assert payload["detail"].startswith("bad element JSON: ")


def test_malformed_edges_and_files_are_usage_errors(tmp_path, capsys):
    data = LabelledGraph.build(Z(2), UNDIRECTED, [("a", "b", 0)], ["a", "b"]).to_json()
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(data))
    code, payload, _ = invoke(capsys, "pack", "--graph", str(path), "--family", "bogus")
    assert (code, payload["error"], payload["detail"]) == (2, "usage", "unknown family 'bogus'")
    del data["edges"][0]["label"]
    path.write_text(json.dumps(data))
    code, payload, _ = invoke(capsys, "pack", "--graph", str(path), "--family", "weight:0")
    assert (code, payload["error"], payload["detail"]) == (2, "usage", "edge JSON needs the key 'label'")
    path.write_text("{not json")
    code, payload, _ = invoke(capsys, "bipartite", "--graph", str(path))
    assert (code, payload["error"]) == (2, "usage")
    path.write_text(json.dumps({"group": {"type": "cyclic_product", "orders": [3]}, "deltas": [1]}))
    code, payload, _ = invoke(capsys, "chain", "--chain", str(path), "--target", "0")
    assert (code, payload["detail"]) == (2, "chain JSON needs the key 'core_weight'")


@pytest.mark.parametrize("argv", [["frame", "--k", "1", "--graph"], ["chain", "--target", "0", "--chain"]])
def test_a_missing_or_unreadable_file_is_a_usage_error(tmp_path, capsys, argv):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    for path in (tmp_path / "missing.json", tmp_path, binary):
        code, payload, err = invoke(capsys, *argv, str(path))
        assert (code, payload["error"]) == (2, "usage"), path
        assert payload["detail"].startswith(f"cannot read {path}: ")
        assert err.startswith("usage error: cannot read ")


@pytest.mark.parametrize(
    "text, detail",
    [
        ("nope", "--group is not JSON"),
        ('{"type": "nope"}', "unknown group type 'nope'"),
        ('{"type": "cyclic_product"}', "group JSON needs the key 'orders'"),
    ],
)
def test_classify_bad_group_is_a_usage_error(capsys, text, detail):
    code, payload, _ = invoke(capsys, "classify", "--group", text)
    assert code == 2
    assert payload["error"] == "usage" and payload["detail"].startswith(detail)


_FUZZ_BASE = LabelledGraph.build(
    Z(4), UNDIRECTED, [("a", "b", 1), ("b", "c", 2), ("a", "c", 0), (0, "a", 3)], ["a", 0]
).to_json()
_FUZZ_FIELDS = [
    *[("vertices", i) for i in range(len(_FUZZ_BASE["vertices"]))],
    *[("edges", j, key) for j in range(len(_FUZZ_BASE["edges"])) for key in ("id", "u", "v", "label")],
    ("model",),
    ("group", "orders"),
    ("A",),
]
# ints stay <= 8 and lists hold at most 3 items, so a mutated `orders` builds at most Z/8^3
_SMALL_JSON = st.recursive(
    st.one_of(st.integers(min_value=-2, max_value=8), st.text(max_size=3), st.none(), st.booleans()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(where=st.sampled_from(_FUZZ_FIELDS), value=_SMALL_JSON)
def test_mutated_graph_json_gets_an_exit_code_not_an_exception(where, value):
    data = copy.deepcopy(_FUZZ_BASE)
    _set_field(data, where, value)
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run(["blocks", "--graph", path])
    assert code in (0, 1, 2, 3)
    assert isinstance(json.loads(out.getvalue()), dict)


# every subcommand's options: only flags that the command reads
_PATH_LIMITS = {"--max-len", "--max-paths"}
OPTIONS = {
    "classify": {"--group", "--ell", "--out"},
    "pack": {"--graph", "--family", "--out", *_PATH_LIMITS},
    "cover": {"--graph", "--family", "--out", *_PATH_LIMITS},
    "duality": {"--graph", "--family", "--out", *_PATH_LIMITS},
    "frame": {"--graph", "--k", "--debug", "--out", *_PATH_LIMITS},
    "chain": {"--chain", "--target", "--out"},
    "gadget": {
        "--variant", "--n", "--group", "--ell", "--g", "--g1", "--g2", "--model", "--verify", "--out",
        *_PATH_LIMITS,
    },
    "bipartite": {"--graph", "--cycle-cap", "--out"},
    "normalize": {"--graph", "--cycle-cap", "--out"},
    "blocks": {"--graph", "--out", *_PATH_LIMITS},
    "verify-suite": {"--seed", "--scale", "--budget", "--only", "--out"},
}


def test_each_subcommand_has_exactly_its_options():
    (subparsers,) = [a for a in build_parser()._actions if a.choices and a.dest == "command"]
    got = {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in subparsers.choices.items()
    }
    assert got == OPTIONS


# each command's required flags, and the Limits field of each limit flag
_REQUIRED = {
    "classify": ["--group", "{}"],
    "pack": ["--graph", "-", "--family", "odd"],
    "cover": ["--graph", "-", "--family", "odd"],
    "duality": ["--graph", "-", "--family", "odd"],
    "frame": ["--graph", "-", "--k", "1"],
    "chain": ["--chain", "-", "--target", "0"],
    "gadget": ["--variant", "gamma", "--n", "2"],
    "bipartite": ["--graph", "-"],
    "normalize": ["--graph", "-"],
    "blocks": ["--graph", "-"],
    "verify-suite": [],
}
_LIMIT_FIELDS = {"--max-len": "max_len", "--max-paths": "max_paths", "--cycle-cap": "cycle_cap", "--budget": "budget_s"}


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_each_limit_flag_defaults_to_the_default_limits_and_sets_its_field(command):
    args = build_parser().parse_args([command, *_REQUIRED[command]])
    assert _limits(args) == DEFAULT_LIMITS
    for flag in sorted(OPTIONS[command] & _LIMIT_FIELDS.keys()):
        field = _LIMIT_FIELDS[flag]
        value = getattr(DEFAULT_LIMITS, field) + 1
        args = build_parser().parse_args([command, *_REQUIRED[command], flag, str(value)])
        assert _limits(args) == dataclasses.replace(DEFAULT_LIMITS, **{field: value})


@pytest.mark.parametrize("argv", [["pack", "--family", "odd", "--budget", "5"], ["bipartite", "--max-len", "3"]])
def test_a_removed_option_is_a_usage_error(tmp_path, capsys, argv):
    graph = graph_file(tmp_path, LabelledGraph.build(Z(2), UNDIRECTED, [("a", "b", 0)], ["a", "b"]))
    code, payload, err = invoke(capsys, *argv, "--graph", graph)
    assert (code, payload) == (2, None)
    assert "unrecognized arguments" in err


S3_JSON = json.dumps(make_s3().to_json())


@pytest.mark.parametrize(
    "group, ell, detail",
    [
        (S3_JSON, "9", "bad element JSON: element index 9 out of range for cayley[6]"),
        ('{"type":"cyclic_product","orders":[2,2]}', "1", "bad element JSON: Z/2xZ/2 needs 2 coordinates"),
    ],
)
def test_bad_element_messages_are_pinned(capsys, group, ell, detail):
    code, payload, err = invoke(capsys, "classify", "--group", group, "--ell", ell)
    assert (code, payload) == (2, {"error": "usage", "detail": detail})
    assert err == f"usage error: {detail}\n"


def test_unreachable_chain_prints_coordinates(tmp_path, capsys):
    path = tmp_path / "chain.json"
    chain = {"group": {"type": "cyclic_product", "orders": [2, 4]}, "core_weight": [0, 1], "deltas": [[0, 2]]}
    path.write_text(json.dumps(chain))
    code, payload, _ = invoke(capsys, "chain", "--chain", str(path), "--target", "[1, 0]")
    assert (code, payload) == (1, {"verdict": "NONE", "reachable": [[0, 1], [0, 3]]})
