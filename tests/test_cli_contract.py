"""The CLI's error contract on seeded random input.

Seeded random graphs go through the graph commands via `cli.run`: both models
over Z/2, Z/3, Z/4 and Z/2 x Z/2, S3 in the directed model, about a third
with mixed int and str vertex and edge ids, plus 3-connected zero-cycle
graphs for `normalize`.  Every call must print exactly one JSON object and
never let an exception escape; a failure must be a usage, rejected or
limit-exceeded error, never an internal one.  Every vertex list a successful
call prints must be in `vertex_key` order, the graph's own.  Truncated graph
files must be usage errors (exit 2) and `--max-paths 1` must exhaust some
search (exit 3).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter

from gammapath.cli import run
from gammapath.graphs import DIRECTED, UNDIRECTED, vertex_key
from gammapath.harness import make_s3, random_labelled_graph, random_three_connected

from util import Z

GROUPS = [Z(2), Z(3), Z(4), Z(2, 2), make_s3()]
COMMANDS = ["pack", "cover", "duality", "frame", "bipartite", "normalize", "blocks"]
LIMITS = ["--max-len", "8", "--max-paths", "2000"]


def _mixed_ids(data: dict) -> dict:
    """The graph JSON with odd vertex ids and every third edge id turned into strings."""
    name = {v: f"v{v}" if v % 2 else v for v in data["vertices"]}
    edges = []
    for e in data["edges"]:
        e = {**e, "u": name[e["u"]], "v": name[e["v"]], "id": f"e{e['id']}" if e["id"] % 3 == 0 else e["id"]}
        if "tail" in e:
            e["tail"] = name[e["tail"]]
        edges.append(e)
    return {**data, "vertices": [name[v] for v in data["vertices"]], "A": [name[a] for a in data["A"]], "edges": edges}


def _family(rng: random.Random, group, data: dict) -> str:
    kind = rng.choice(["weight", "nonzero", "odd", "aba"])
    if kind == "weight":
        return "weight:" + json.dumps(rng.choice(group.elements()).to_json())
    if kind == "aba":
        return "aba:" + ",".join(str(v) for v in rng.sample(data["vertices"], 2))
    return kind


def _options(rng: random.Random, command: str, group, data: dict) -> list[str]:
    if command in ("pack", "cover", "duality"):
        return ["--family", _family(rng, group, data), *LIMITS]
    if command == "frame":
        return ["--k", str(rng.randint(1, 3)), *LIMITS]
    if command == "blocks":
        return LIMITS
    return ["--cycle-cap", "2000"]


def _call(argv: list[str]) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    payload = json.loads(out.getvalue())
    assert isinstance(payload, dict), argv
    if "error" in payload:
        assert payload["error"] in ("usage", "rejected", "limit-exceeded"), (argv, payload)
        assert code == {"usage": 2, "rejected": 1, "limit-exceeded": 3}[payload["error"]], (argv, payload)
    return code, payload


def _assert_key_order(command: str, payload: dict) -> None:
    """Each vertex list of an exit-0 payload, and the blocks, come in vertex_key order."""
    lists = [payload["family"]["through"]] if "through" in payload.get("family", {}) else []
    if command == "cover":
        lists.append(payload["cover"])
    elif command == "duality":
        lists.append(payload["cover"]["vertices"])  # its packing prints paths, in walk order
    elif command == "frame":
        lists += [payload["outcome"]["vertices"]] if payload["outcome"]["kind"] == "cover" else []
        lists += [move["vertices"] for move in payload["audit"] if move["move"] == "cover"]
    elif command == "blocks":
        lists += [block["vertices"] for block in payload["blocks"]]
        keys = [[vertex_key(v) for v in block["vertices"]] for block in payload["blocks"]]
        assert keys == sorted(keys), payload
    for vertices in lists:
        assert vertices == sorted(vertices, key=vertex_key), (command, payload)


def _cases(rng: random.Random):
    """(graph JSON, group, commands): random graphs for every command, 3-connected ones for normalize."""
    for _ in range(90):
        group = rng.choice(GROUPS)
        model = rng.choice([DIRECTED, UNDIRECTED]) if group.is_abelian else DIRECTED
        data = random_labelled_graph(rng, group, model, 7).to_json()
        yield data, group, COMMANDS
    for _ in range(20):
        group = rng.choice([Z(2), Z(4), Z(2, 2)])
        graph, _ = random_three_connected(rng, group, rng.randint(4, 7))
        yield graph.to_json(), group, ["normalize", "bipartite", "blocks"]


def test_seeded_graph_commands_keep_the_error_contract(tmp_path):
    rng = random.Random(20201)
    exits = Counter()
    path = tmp_path / "graph.json"
    for i, (data, group, commands) in enumerate(_cases(rng)):
        if i % 3 == 0:
            data = _mixed_ids(data)
        text = json.dumps(data)
        path.write_text(text)
        for command in commands:
            code, payload = _call([command, "--graph", str(path), *_options(rng, command, group, data)])
            exits[command, code] += 1
            if code == 0:
                _assert_key_order(command, payload)
        path.write_text(text[: rng.randrange(len(text))])
        command = rng.choice(commands)
        assert _call([command, "--graph", str(path), *_options(rng, command, group, data)])[0] == 2
        path.write_text(text)
        code, _ = _call(["pack", "--graph", str(path), "--family", "nonzero", "--max-paths", "1"])
        exits["max-paths 1", code] += 1
    assert all(exits[command, 0] for command in COMMANDS), exits
    assert exits["max-paths 1", 3], exits
