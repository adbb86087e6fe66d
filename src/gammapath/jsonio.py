"""Canonical JSON (de)serialization for groups, graphs, and certificates."""

from __future__ import annotations

import json

from .errors import parsing, require_keys
from .graphs import DIRECTED, Edge, LabelledGraph, PathWitness
from .groups import GroupSpec, group_from_json


def graph_from_json(data: dict) -> LabelledGraph:
    require_keys(data, ("group", "model", "vertices", "edges"), "graph")
    group = group_from_json(data["group"])
    model = data["model"]
    with parsing("graph"):
        edges = []
        for entry in data["edges"]:
            require_keys(entry, ("id", "u", "v", "label"), "edge")
            edges.append(
                Edge(
                    entry["id"],
                    entry["u"],
                    entry["v"],
                    group.element(entry["label"]),
                    entry.get("tail") if model == DIRECTED else None,
                )
            )
        return LabelledGraph(group, model, data["vertices"], edges, data.get("A", ()))


def witness_from_json(graph: LabelledGraph, data: dict) -> PathWitness:
    return PathWitness.from_json(graph, data)


def dumps(payload) -> str:
    """Deterministic rendering: sorted keys, fixed layout."""
    return json.dumps(payload, sort_keys=True, indent=2)


def parse_element(group: GroupSpec, text: str):
    """Element from a CLI token: JSON when it parses, raw value otherwise."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    with parsing("element"):
        return group.element(value)
