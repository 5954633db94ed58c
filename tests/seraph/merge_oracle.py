"""The Cypher-``MERGE`` materializer: the reference for ``EMIT ... INTO``.

This is the derived-stream materializer as it was before
:class:`repro.seraph.dataflow.StreamMaterializer` kept its own node
index.  Every emitted row is applied as a
``MERGE (r:<stream> {col: $col, ...})`` through the updating-Cypher
evaluator against a :class:`~repro.graph.store.GraphStore`, so the row's
node is whatever Cypher's ``MERGE`` answers.  Production must produce
the same elements and the same checkpoint documents
(``tests/seraph/test_materializer_oracle.py``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.cypher import ast as cypher_ast
from repro.cypher.updating import UpdatingQueryEvaluator
from repro.graph.io import graph_from_dict, graph_to_dict
from repro.graph.model import Node, PropertyGraph
from repro.graph.store import GraphStore
from repro.graph.table import Table
from repro.graph.values import NULL
from repro.seraph.dataflow import DERIVED_NODE_ID_BASE, _stream_value
from repro.seraph.sinks import Emission
from repro.stream.stream import StreamElement


class MergeOracle:
    """Turns one query's emissions into elements of a derived stream.

    One instance per derived stream; the engine owns one for every
    ``INTO`` target and feeds it every (post-report-policy) emission of
    the stream's producers, in evaluation order.  ``elements`` — the
    number of stream elements materialized so far — is the stream's
    **cursor**: it survives checkpoints and is what the service lists
    per tenant.
    """

    def __init__(self, stream: str):
        self.stream = stream
        self.store = GraphStore()
        # Sequential allocation from the derived-id base keeps node
        # identity deterministic and collision-free (module docstring).
        self.store._next_node_id = DERIVED_NODE_ID_BASE
        self.elements = 0
        self.rows = 0
        self._merges: Dict[Tuple[str, ...], cypher_ast.Merge] = {}

    def _merge_for(self, columns: Tuple[str, ...]) -> cypher_ast.Merge:
        merge = self._merges.get(columns)
        if merge is None:
            node = cypher_ast.NodePattern(
                variable="r",
                labels=(self.stream,),
                properties=tuple(
                    (column, cypher_ast.Parameter(column))
                    for column in columns
                ),
            )
            merge = cypher_ast.Merge(path=cypher_ast.PathPattern(nodes=(node,)))
            self._merges[columns] = merge
        return merge

    def materialize(self, emission: Emission) -> Optional[StreamElement]:
        """The stream element for one emission, or None when empty.

        Empty emissions produce no element (matching the constructing
        sink's default): an empty window downstream stays empty instead
        of receiving blank configuration events.
        """
        if emission.is_empty():
            return None
        nodes: List[Node] = []
        seen: set = set()
        for record in emission.table.table:
            parameters = {
                column: _stream_value(record[column])
                for column in sorted(record)
                if record[column] is not NULL
            }
            if not parameters:
                continue  # an all-null row carries no identity to merge on
            columns = tuple(sorted(parameters))
            evaluator = UpdatingQueryEvaluator(self.store,
                                               parameters=parameters)
            bound = evaluator.apply_clause(self._merge_for(columns),
                                           Table.unit())
            self.rows += 1
            for out in bound:
                node = out["r"]
                if node.id not in seen:
                    seen.add(node.id)
                    nodes.append(node)
        if not nodes:
            return None
        self.elements += 1
        # Re-read the merged nodes from the store snapshot so the element
        # carries the canonical (deduplicated) property values.
        snapshot = self.store.graph()
        graph = PropertyGraph.of(
            [snapshot.node(node.id) for node in nodes], []
        )
        return StreamElement(graph=graph, instant=emission.instant)

    # -- checkpointing ----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Checkpoint state: cursor counters plus the merge store."""
        return {
            "stream": self.stream,
            "elements": self.elements,
            "rows": self.rows,
            "next_node_id": self.store._next_node_id,
            "graph": graph_to_dict(self.store.graph()),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MergeOracle":
        materializer = cls(str(data["stream"]))
        materializer.elements = int(data.get("elements", 0))
        materializer.rows = int(data.get("rows", 0))
        materializer.store.load(graph_from_dict(data["graph"]))
        materializer.store._next_node_id = max(
            materializer.store._next_node_id,
            int(data.get("next_node_id", DERIVED_NODE_ID_BASE)),
            DERIVED_NODE_ID_BASE,
        )
        return materializer
