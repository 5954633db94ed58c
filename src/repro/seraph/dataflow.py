"""Materializing ``EMIT ... INTO`` emissions back into graph elements.

The dataflow tentpole (docs/DATAFLOW.md): a producer query's emitted
rows become property-graph stream elements on a **named derived stream**
that downstream registered queries consume with ``FROM STREAM``.  Each
emitted row is ``MERGE (r:<stream> {col: $col, ...})`` on its non-null
columns (``tests/seraph/merge_oracle.py`` runs exactly that Cypher as
the oracle), answered from one hash index per column set, so

* repeated rows (across evaluations, or across window overlaps) merge
  into **one** immutable node — the same cable keeps the same id, which
  is exactly the UNA-union contract (Definition 5.4) window snapshots
  rely on;
* node identity is deterministic: ids are allocated sequentially from
  :data:`DERIVED_NODE_ID_BASE` in first-materialization order, so the
  fused pipeline and a hand-composed multi-engine run produce
  byte-identical elements;
* a row costs O(its matches), not O(stored nodes).

The materializer is deliberately standalone — tests and benchmarks use
it to glue separately-run engines together and pin that the in-engine
pipeline emits the same bytes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.graph.io import graph_from_dict, graph_to_dict
from repro.graph.model import Node, Path, PropertyGraph, Relationship
from repro.graph.values import NULL, Ternary, cypher_equals, hashable
from repro.seraph.sinks import Emission
from repro.stream.stream import StreamElement

#: Derived-stream node ids start far above every generator/use-case id
#: range so UNA-union never collides a materialized row with a node of
#: the raw stream or a static graph.
DERIVED_NODE_ID_BASE = 1_000_000_000


def _stream_value(value: Any) -> Any:
    """An emitted value as a storable node property.

    Graph entities are replaced by their identifiers (the same rule the
    JSONL sink applies): a node becomes its id, a relationship its id, a
    path the list of its relationship ids.  Scalars and containers pass
    through.
    """
    if isinstance(value, (str, int, float)):  # bool is an int
        return value
    if isinstance(value, (Node, Relationship)):
        return value.id
    if isinstance(value, Path):
        return [rel.id for rel in value.relationships]
    if isinstance(value, (list, tuple)):
        return [_stream_value(item) for item in value]
    if isinstance(value, dict):
        return {key: _stream_value(item) for key, item in value.items()}
    return value


class StreamMaterializer:
    """Turns one query's emissions into elements of a derived stream.

    One instance per derived stream; the engine owns one for every
    ``INTO`` target and feeds it every (post-report-policy) emission of
    the stream's producers, in evaluation order.  ``elements`` — the
    number of stream elements materialized so far — is the stream's
    **cursor**: it survives checkpoints and is what the service lists
    per tenant.  ``nodes`` holds every materialized node, oldest first.
    """

    def __init__(self, stream: str):
        self.stream = stream
        self.nodes: Dict[int, Node] = {}
        # Sequential allocation from the derived-id base keeps node
        # identity deterministic and collision-free (module docstring).
        self.next_node_id = DERIVED_NODE_ID_BASE
        self.elements = 0
        self.rows = 0
        self._indexes: Dict[Tuple[str, ...], Dict[tuple, List[Node]]] = {}

    def _index(self, columns: Tuple[str, ...]) -> Dict[tuple, List[Node]]:
        """Hashed values on ``columns`` -> the nodes carrying all of
        ``columns``, oldest first; built from ``nodes`` on first use."""
        index = self._indexes.get(columns)
        if index is None:
            index = self._indexes[columns] = {}
            for node in self.nodes.values():
                if all(column in node.properties for column in columns):
                    index.setdefault(_key(columns, node.properties),
                                     []).append(node)
        return index

    def _merge(self, row: Dict[str, Any]) -> List[Node]:
        """The nodes Cypher ``=`` matches to ``row``, or one new node."""
        columns = tuple(row)
        matched = [
            node for node in self._index(columns).get(_key(columns, row), ())
            if all(cypher_equals(node.properties[column], row[column])
                   is Ternary.TRUE for column in columns)
        ]
        if matched:
            return matched
        node = Node(self.next_node_id, (self.stream,), row)
        self.next_node_id += 1
        self.nodes[node.id] = node
        for indexed, index in self._indexes.items():
            if all(column in row for column in indexed):
                index.setdefault(_key(indexed, row), []).append(node)
        return [node]

    def materialize(self, emission: Emission) -> Optional[StreamElement]:
        """The stream element for one emission, or None when empty.

        Empty emissions produce no element (matching the constructing
        sink's default): an empty window downstream stays empty instead
        of receiving blank configuration events.
        """
        if emission.is_empty():
            return None
        nodes: Dict[int, Node] = {}
        for record in emission.table.table:
            row = {
                column: _stream_value(record[column])
                for column in sorted(record)
                if record[column] is not NULL
            }
            if not row:
                continue  # an all-null row carries no identity to merge on
            self.rows += 1
            for node in self._merge(row):
                nodes.setdefault(node.id, node)
        if not nodes:
            return None
        self.elements += 1
        return StreamElement(graph=PropertyGraph.of(nodes.values(), []),
                             instant=emission.instant)

    # -- checkpointing ----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Checkpoint state: cursor counters plus the materialized nodes."""
        return {
            "stream": self.stream,
            "elements": self.elements,
            "rows": self.rows,
            "next_node_id": self.next_node_id,
            "graph": graph_to_dict(PropertyGraph.of(self.nodes.values())),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "StreamMaterializer":
        materializer = cls(str(data["stream"]))
        materializer.elements = int(data.get("elements", 0))
        materializer.rows = int(data.get("rows", 0))
        materializer.nodes = dict(graph_from_dict(data["graph"]).nodes)
        materializer.next_node_id = max(
            max(materializer.nodes, default=0) + 1,
            int(data.get("next_node_id", DERIVED_NODE_ID_BASE)),
            DERIVED_NODE_ID_BASE,
        )
        return materializer


def _key(columns: Tuple[str, ...], properties: Any) -> tuple:
    # Equal under Cypher ``=`` implies an equal key (:func:`hashable`).
    return tuple([hashable(properties[column]) for column in columns])
