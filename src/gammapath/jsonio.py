"""Canonical JSON (de)serialization for groups, graphs, and certificates."""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from .errors import UsageError, parsing, require_keys
from .graphs import DIRECTED, Edge, LabelledGraph, PathWitness, walk_weight
from .groups import GroupSpec, group_from_json

_EDGE_KEYS = ("id", "u", "v", "label")
_INT = frozenset((int,))


def graph_from_json(data: dict) -> LabelledGraph:
    """The graph of a JSON object.  An edge's four keys are read directly, and only an entry
    that lacks one goes through `require_keys` to name it; each `Edge` is made once."""
    require_keys(data, ("group", "model", "vertices", "edges"), "graph")
    for key in ("vertices", "edges", "A"):
        if type(data.get(key, [])) is not list:
            raise UsageError(f"graph JSON key {key!r} must be a list")
    group = group_from_json(data["group"])
    directed = data["model"] == DIRECTED
    element = group.element
    # one element per distinct label: a plain int, str or list of ints, keyed by its exact
    # types coordinate by coordinate, so that 1, 1.0, True and [1] stay apart
    known: dict = {}
    with parsing("graph"):
        edges = []
        for entry in data["edges"]:
            try:
                eid, u, v, label = entry["id"], entry["u"], entry["v"], entry["label"]
            except (KeyError, TypeError):
                require_keys(entry, _EDGE_KEYS, "edge")
            kind = type(label)
            if kind is list:
                key = (kind, *label) if set(map(type, label)) <= _INT else None
            else:
                key = (kind, label) if kind is int or kind is str else None
            elem = known.get(key)
            if elem is None:
                elem = element(label)
                if key is not None:
                    known[key] = elem
            edges.append(Edge(eid, u, v, elem, entry.get("tail") if directed else None))
        return LabelledGraph(group, data["model"], data["vertices"], edges, data.get("A", ()))


def witness_from_json(graph: LabelledGraph, data: dict) -> PathWitness:
    """The witness of a JSON object's walk, weighed by `walk_weight`, which reads its ids by exact
    type.  A "trivial" key is not read: one vertex and no edges is the trivial path."""
    require_keys(data, ("vertices", "edges"), "witness")
    vertices = tuple(data["vertices"])
    edges = tuple(data["edges"])
    return PathWitness(vertices, edges, walk_weight(graph, vertices, edges))


def dumps(payload) -> str:
    """Deterministic rendering: sorted keys, fixed layout.

    The text is byte for byte that of `json.dumps(payload, sort_keys=True,
    indent=2)`, with the same TypeErrors; a list of one scalar type is
    joined in one call.  Payloads are trees: a container that holds itself
    raises RecursionError, not json's ValueError.
    """
    return _render(payload, "\n")


# the text of a scalar by exact type; a float or any other value goes to json's own encoder,
# which also raises the TypeError for what json cannot serialize
_encode = json.JSONEncoder().encode
_SCALARS = {
    str: _quote,
    int: int.__repr__,
    float: _encode,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _key(key) -> str:
    """A dict key quoted as json writes it: a float, bool, None or int is converted first."""
    if isinstance(key, str):
        return _quote(key)
    if isinstance(key, (int, float)) or key is None:
        return _quote(_encode(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _render(x, newline: str) -> str:
    """x as JSON, its nested lines indented two spaces past `newline`."""
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = newline + "  "
        items = []
        # sorted before the keys are converted, as json does: mixed key types raise TypeError
        for k, v in sorted(x.items()):
            one = _SCALARS.get(type(v))
            items.append(f"{_quote(k) if type(k) is str else _key(k)}: {one(v) if one else _render(v, inner)}")
        body = ("," + inner).join(items)
        return f"{{{inner}{body}{newline}}}"
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = newline + "  "
        kinds = set(map(type, x))
        one = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        body = ("," + inner).join(map(one, x) if one else [_render(v, inner) for v in x])
        return f"[{inner}{body}{newline}]"
    return _encode(x)


def parse_element(group: GroupSpec, text: str):
    """Element from a CLI token: JSON when it parses, raw value otherwise."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    with parsing("element"):
        return group.element(value)
