"""Seraph: the continuous query language and engine (the paper's core)."""

from repro.seraph.ast import DEFAULT_STREAM, Emit, SeraphMatch, SeraphQuery
from repro.seraph.construct import (
    ConstructingSink,
    GraphTemplate,
    NodeSpec,
    RelationshipSpec,
)
from repro.seraph.dataflow import DERIVED_NODE_ID_BASE, StreamMaterializer
from repro.seraph.engine import RegisteredQuery, SeraphEngine
from repro.seraph.explain import explain, explain_analyze, explain_dataflow
from repro.seraph.parser import SeraphParser, parse_seraph
from repro.seraph.registry import DataflowGraph
from repro.seraph.semantics import continuous_run, evaluate_at, execute_body
from repro.seraph.sinks import CallbackSink, CollectingSink, Emission, PrintingSink

__all__ = [
    "CallbackSink",
    "CollectingSink",
    "ConstructingSink",
    "DEFAULT_STREAM",
    "DERIVED_NODE_ID_BASE",
    "DataflowGraph",
    "Emission",
    "Emit",
    "GraphTemplate",
    "NodeSpec",
    "PrintingSink",
    "RegisteredQuery",
    "RelationshipSpec",
    "SeraphEngine",
    "SeraphMatch",
    "SeraphParser",
    "SeraphQuery",
    "StreamMaterializer",
    "continuous_run",
    "evaluate_at",
    "execute_body",
    "explain",
    "explain_analyze",
    "explain_dataflow",
    "parse_seraph",
]
