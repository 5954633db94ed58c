"""Union of property graphs under UNA (Definition 5.4).

Under the Unique Name Assumption, two elements with the same identifier
denote the same real-world entity; their descriptions must therefore be
*consistent* — identical labels/type/endpoints and non-contradictory
property assignments.  Definition 5.4 declares the union of inconsistent
graphs to be ∅; in code we either raise (:func:`union`, strict mode used
by the formal layer) or combine properties last-writer-wins
(:func:`merge`, the engine's ingestion mode, mirroring the behaviour of
the Neo4j Kafka connector ``MERGE`` the paper describes).
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.errors import GraphUnionError
from repro.graph.model import Node, PropertyGraph, Relationship


def _check_node_consistent(left: Node, right: Node) -> None:
    if left.labels != right.labels:
        raise GraphUnionError(
            f"node {left.id} has conflicting labels "
            f"{sorted(left.labels)} vs {sorted(right.labels)}"
        )
    for key in left.properties.keys() & right.properties.keys():
        if left.properties[key] != right.properties[key]:
            raise GraphUnionError(
                f"node {left.id} has conflicting values for property {key!r}"
            )


def _check_relationship_consistent(
    left: Relationship, right: Relationship, strict: bool
) -> None:
    if (left.type, left.src, left.trg) != (right.type, right.src, right.trg):
        raise GraphUnionError(
            f"relationship {left.id} has conflicting type/endpoints"
        )
    if not strict:
        return
    for key in left.properties.keys() & right.properties.keys():
        if left.properties[key] != right.properties[key]:
            raise GraphUnionError(
                f"relationship {left.id} has conflicting values for property {key!r}"
            )


def _combine_node(left: Node, right: Node) -> Node:
    properties = dict(left.properties)
    properties.update(right.properties)
    return Node(id=left.id, labels=left.labels | right.labels, properties=properties)


def _combine_relationship(left: Relationship, right: Relationship) -> Relationship:
    properties = dict(left.properties)
    properties.update(right.properties)
    return Relationship(
        id=left.id, type=left.type, src=left.src, trg=left.trg, properties=properties
    )


def union(left: PropertyGraph, right: PropertyGraph) -> PropertyGraph:
    """Strict union per Definition 5.4.

    Raises :class:`GraphUnionError` when the operands are inconsistent
    (the paper maps that case to the empty graph; an exception is the
    safer library behaviour, and callers who want ∅ can catch it).
    """
    return _union(left, right, strict=True)


def merge(left: PropertyGraph, right: PropertyGraph) -> PropertyGraph:
    """Lenient union: conflicting properties resolve to the right operand.

    Labels/endpoints/type conflicts still raise — those indicate identifier
    reuse for genuinely different entities, which UNA forbids.
    This mirrors ``MERGE``-style ingestion (newer event wins) used when
    loading a stream into a persisted graph (Section 2 / Figure 2).
    """
    return _union(left, right, strict=False)


def _union(left: PropertyGraph, right: PropertyGraph, strict: bool) -> PropertyGraph:
    """Both unions; only a ``strict`` one checks labels and properties."""
    nodes: Dict[int, Node] = dict(left.nodes)
    for node in right.nodes.values():
        existing = nodes.get(node.id)
        if existing is not None:
            if strict:
                _check_node_consistent(existing, node)
            node = _combine_node(existing, node)
        nodes[node.id] = node
    relationships: Dict[int, Relationship] = dict(left.relationships)
    for rel in right.relationships.values():
        existing = relationships.get(rel.id)
        if existing is not None:
            _check_relationship_consistent(existing, rel, strict)
            rel = _combine_relationship(existing, rel)
        relationships[rel.id] = rel
    return PropertyGraph.of(nodes.values(), relationships.values())


def union_all(graphs: Iterable[PropertyGraph]) -> PropertyGraph:
    """Fold :func:`union` over a graph collection (Definition 5.5 helper)."""
    result = PropertyGraph.empty()
    for graph in graphs:
        result = union(result, graph)
    return result


def consistent(left: PropertyGraph, right: PropertyGraph) -> bool:
    """True when the two graphs can be united under UNA."""
    try:
        union(left, right)
    except GraphUnionError:
        return False
    return True
