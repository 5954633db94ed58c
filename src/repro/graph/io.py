"""JSON (de)serialization for graphs, streams, and tables.

The format is a stable, line-oriented JSON document layout so streams can
be persisted and replayed (the repository's stand-in for the paper's Kafka
topics).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.errors import GraphError
from repro.graph.model import Node, PropertyGraph, Relationship


def node_to_dict(node: Node) -> Dict[str, Any]:
    return {
        "id": node.id,
        "labels": sorted(node.labels),
        "properties": dict(node.properties),
    }


def node_from_dict(data: Dict[str, Any]) -> Node:
    return Node(
        id=int(data["id"]),
        labels=frozenset(data.get("labels", ())),
        properties=data.get("properties", {}),
    )


def relationship_to_dict(rel: Relationship) -> Dict[str, Any]:
    return {
        "id": rel.id,
        "type": rel.type,
        "src": rel.src,
        "trg": rel.trg,
        "properties": dict(rel.properties),
    }


def relationship_from_dict(data: Dict[str, Any]) -> Relationship:
    return Relationship(
        id=int(data["id"]),
        type=data["type"],
        src=int(data["src"]),
        trg=int(data["trg"]),
        properties=data.get("properties", {}),
    )


def graph_to_dict(graph: PropertyGraph) -> Dict[str, Any]:
    return {
        "nodes": [node_to_dict(node) for node in graph.nodes.values()],
        "relationships": [
            relationship_to_dict(rel) for rel in graph.relationships.values()
        ],
    }


def graph_from_dict(data: Dict[str, Any]) -> PropertyGraph:
    try:
        nodes = [node_from_dict(item) for item in data.get("nodes", ())]
        relationships = [
            relationship_from_dict(item) for item in data.get("relationships", ())
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"malformed graph document: {exc}") from exc
    return PropertyGraph.of(nodes, relationships)


def graph_to_json(graph: PropertyGraph, indent: int | None = None) -> str:
    return json.dumps(graph_to_dict(graph), indent=indent, sort_keys=True)


def graph_from_json(text: str) -> PropertyGraph:
    return graph_from_dict(json.loads(text))


def element_to_dict(element: Any) -> Dict[str, Any]:
    """The wire form of one ``StreamElement``-like pair."""
    return {"instant": element.instant,
            "graph": graph_to_dict(element.graph)}


def element_from_dict(data: Dict[str, Any]) -> Any:
    from repro.stream.stream import StreamElement

    return StreamElement(graph=graph_from_dict(data["graph"]),
                         instant=int(data["instant"]))


def stream_to_jsonl(elements: List[Any]) -> str:
    """Serialize ``StreamElement``-like pairs to JSON-lines."""
    return "\n".join(
        json.dumps(element_to_dict(element), sort_keys=True)
        for element in elements
    )


def stream_from_jsonl(text: str) -> List[Any]:
    """Parse JSON-lines into ``StreamElement`` objects."""
    return [
        element_from_dict(json.loads(line))
        for line in text.splitlines() if line.strip()
    ]
