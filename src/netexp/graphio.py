"""Graph-file ingestion: JSON objects naming nodes, terminals, and per-edge
channels, validated field by field."""
from __future__ import annotations

import json
from dataclasses import dataclass

from .channel import channel_from_obj, channel_to_obj
from .errors import GraphFileError, NetexpError
from .flow import ChannelGraph, GraphEdge


@dataclass(frozen=True)
class GraphFile:
    """Parsed graph file plus the built ChannelGraph."""

    nodes: tuple
    source: str
    destination: str
    edge_objs: tuple
    graph: ChannelGraph


def _require(cond: bool, field: str, msg: str) -> None:
    if not cond:
        raise GraphFileError(f"{field}: {msg}")


def _node_index(index: dict, value, field: str) -> int:
    """Index of a node reference; a list or object cannot name a node."""
    _require(isinstance(value, str), field, f"node id must be a string, got {value!r}")
    _require(value in index, field, f"unknown node id {value!r}")
    return index[value]


def parse_graph_obj(obj) -> GraphFile:
    _require(isinstance(obj, dict), "$", "graph file must be a JSON object")
    for key in ("nodes", "source", "destination", "edges"):
        _require(key in obj, key, "missing required field")
    nodes = obj["nodes"]
    _require(isinstance(nodes, list) and nodes, "nodes", "must be a non-empty list")
    _require(all(isinstance(v, str) for v in nodes), "nodes", "node ids must be strings")
    _require(len(set(nodes)) == len(nodes), "nodes", "node ids must be unique")
    index = {name: i for i, name in enumerate(nodes)}
    source = _node_index(index, obj["source"], "source")
    destination = _node_index(index, obj["destination"], "destination")
    _require(source != destination, "destination", "must differ from source")
    raw_edges = obj["edges"]
    _require(isinstance(raw_edges, list) and raw_edges, "edges", "must be a non-empty list")

    edges = []
    edge_objs = []
    for i, eo in enumerate(raw_edges):
        field = f"edges[{i}]"
        _require(isinstance(eo, dict), field, "edge must be an object")
        for key in ("from", "to", "channel"):
            _require(key in eo, f"{field}.{key}", "missing required field")
        tail = _node_index(index, eo["from"], f"{field}.from")
        head = _node_index(index, eo["to"], f"{field}.to")
        try:
            chan = channel_from_obj(eo["channel"])
        except NetexpError as exc:
            raise GraphFileError(f"{field}.channel: {exc}") from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphFileError(f"{field}.channel: malformed channel object ({exc})") from exc
        eid = eo.get("id", f"e{i}")
        _require(isinstance(eid, str), f"{field}.id", "edge id must be a string")
        edges.append(GraphEdge(tail=tail, head=head, channel=chan, id=i))
        edge_objs.append({"from": eo["from"], "to": eo["to"],
                          "channel": channel_to_obj(chan, eo["channel"]), "id": eid})

    try:
        graph = ChannelGraph(len(nodes), source, destination, tuple(edges))
    except NetexpError as exc:
        raise GraphFileError(f"edges: {exc}") from exc
    return GraphFile(
        nodes=tuple(nodes),
        source=obj["source"],
        destination=obj["destination"],
        edge_objs=tuple(edge_objs),
        graph=graph,
    )


def load_graph_file(path: str) -> GraphFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise GraphFileError(f"$: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GraphFileError(f"$: invalid JSON: {exc}") from exc
    return parse_graph_obj(obj)


def dump_normalized(gf: GraphFile) -> str:
    """Canonical re-serialization; parsing it again rebuilds the same graph."""
    obj = {
        "nodes": list(gf.nodes),
        "source": gf.source,
        "destination": gf.destination,
        "edges": [dict(eo) for eo in gf.edge_objs],
    }
    return json.dumps(obj, indent=2, sort_keys=True)
