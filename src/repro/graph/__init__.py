"""Property graph substrate: values, graphs, tables, union, IO."""

from repro.graph.builder import GraphBuilder
from repro.graph.model import Node, Path, PropertyGraph, Relationship
from repro.graph.store import GraphStore
from repro.graph.table import EMPTY_RECORD, Record, Table
from repro.graph.union import consistent, merge, union, union_all
from repro.graph.values import NULL, Ternary

__all__ = [
    "EMPTY_RECORD",
    "GraphBuilder",
    "GraphStore",
    "NULL",
    "Node",
    "Path",
    "PropertyGraph",
    "Record",
    "Relationship",
    "Table",
    "Ternary",
    "consistent",
    "merge",
    "union",
    "union_all",
]
