"""Reproduction of *Seraph: Continuous Queries on Property Graph Streams*
(EDBT 2024).

Public API highlights
---------------------
* :class:`repro.graph.PropertyGraph`, :class:`repro.graph.GraphBuilder` —
  the property graph model (Definition 3.1).
* :func:`repro.cypher.run_cypher` — one-time core-Cypher evaluation
  (Section 3).
* :class:`repro.stream.PropertyGraphStream`,
  :class:`repro.stream.WindowConfig` — streams and time-based windows
  (Definitions 5.2, 5.9–5.11).
* :func:`repro.seraph.parse_seraph`, :class:`repro.seraph.SeraphEngine` —
  the Seraph language and its continuous engine (Sections 5–6).

* :class:`repro.EngineConfig`, :func:`repro.build_engine` — the one
  front door composing the engine core, the fault-tolerant
  ingress, and the observability layer (docs/OBSERVABILITY.md).
* :class:`repro.SeraphService`, :class:`repro.ServiceConfig` — the
  multi-tenant continuous-query HTTP service over that front door
  (``python -m repro serve``; docs/SERVICE.md).

The export list is curated and pinned by test: everything in
``__all__`` is stable API surface; reach into submodules for the rest
at your own risk.

Quickstart::

    from repro import EngineConfig, build_engine, parse_seraph
    engine = build_engine(EngineConfig(observability=True))
    engine.register(parse_seraph(QUERY_TEXT))
    emissions = engine.run_stream(stream_elements)
"""

from repro.api import EngineConfig, build_engine
from repro.cypher import parse_cypher, run_cypher, run_update
from repro.errors import (
    AuthenticationError,
    CheckpointError,
    ConsumerLagError,
    CypherError,
    DataflowCycleError,
    DataflowError,
    EngineError,
    GraphError,
    QueryRegistryError,
    QuotaExceededError,
    ReproError,
    SeraphError,
    SeraphSemanticError,
    SeraphSyntaxError,
    ServiceError,
    StreamError,
    TenantQuarantinedError,
    UnknownStreamError,
    UnknownTenantError,
)
from repro.runtime.faults import ChaosConfig
from repro.obs import Observability
from repro.graph import (
    GraphBuilder,
    Node,
    Path,
    PropertyGraph,
    Record,
    Relationship,
    Table,
)
from repro.seraph import (
    CollectingSink,
    DataflowGraph,
    Emission,
    SeraphEngine,
    SeraphQuery,
    StreamMaterializer,
    parse_seraph,
)
from repro.seraph.explain import explain, explain_analyze, explain_dataflow
from repro.service import (
    SeraphService,
    ServiceClient,
    ServiceConfig,
    TenantQuotas,
    TenantSpec,
)
from repro.stream import (
    ActiveSubstreamPolicy,
    PropertyGraphStream,
    ReportPolicy,
    StreamElement,
    TimeAnnotatedTable,
    TimeInterval,
    WindowConfig,
)

__version__ = "1.1.0"

#: The curated public surface, pinned by ``tests/test_exports.py``.
#: Grouped: engine front door, language, data model, streams, service,
#: observability, typed errors.
__all__ = [
    # engine front door
    "EngineConfig",
    "build_engine",
    "ChaosConfig",
    "SeraphEngine",
    # language + explain
    "parse_seraph",
    "parse_cypher",
    "run_cypher",
    "run_update",
    "explain",
    "explain_analyze",
    "explain_dataflow",
    "SeraphQuery",
    "CollectingSink",
    "Emission",
    # dataflow chaining (EMIT ... INTO, docs/DATAFLOW.md)
    "DataflowGraph",
    "StreamMaterializer",
    # data model
    "GraphBuilder",
    "Node",
    "Path",
    "PropertyGraph",
    "Record",
    "Relationship",
    "Table",
    # streams + windows
    "ActiveSubstreamPolicy",
    "PropertyGraphStream",
    "ReportPolicy",
    "StreamElement",
    "TimeAnnotatedTable",
    "TimeInterval",
    "WindowConfig",
    # service
    "SeraphService",
    "ServiceClient",
    "ServiceConfig",
    "TenantQuotas",
    "TenantSpec",
    # observability
    "Observability",
    # typed errors
    "ReproError",
    "GraphError",
    "StreamError",
    "CypherError",
    "SeraphError",
    "SeraphSyntaxError",
    "SeraphSemanticError",
    "QueryRegistryError",
    "EngineError",
    "CheckpointError",
    "DataflowError",
    "DataflowCycleError",
    "UnknownStreamError",
    "ServiceError",
    "AuthenticationError",
    "UnknownTenantError",
    "QuotaExceededError",
    "TenantQuarantinedError",
    "ConsumerLagError",
]
