"""The curated top-level surface is pinned: additions and removals to
``repro.__all__`` must be deliberate (update this list in the same
change that edits the package ``__init__``)."""

import repro

PINNED_EXPORTS = {
    # engine front door
    "EngineConfig", "build_engine", "ChaosConfig", "SeraphEngine",
    # language + explain
    "parse_seraph", "parse_cypher", "run_cypher", "run_update",
    "explain", "explain_analyze", "explain_dataflow", "SeraphQuery",
    "CollectingSink", "Emission",
    # dataflow chaining (EMIT ... INTO)
    "DataflowGraph", "StreamMaterializer",
    # data model
    "GraphBuilder", "Node", "Path", "PropertyGraph", "Record",
    "Relationship", "Table",
    # streams + windows
    "ActiveSubstreamPolicy", "PropertyGraphStream", "ReportPolicy",
    "StreamElement", "TimeAnnotatedTable", "TimeInterval", "WindowConfig",
    # service
    "SeraphService", "ServiceClient", "ServiceConfig", "TenantQuotas",
    "TenantSpec",
    # observability
    "Observability",
    # typed errors
    "ReproError", "GraphError", "StreamError", "CypherError",
    "SeraphError", "SeraphSyntaxError", "SeraphSemanticError",
    "QueryRegistryError", "EngineError", "CheckpointError",
    "DataflowError", "DataflowCycleError", "UnknownStreamError",
    "ServiceError", "AuthenticationError", "UnknownTenantError",
    "QuotaExceededError", "TenantQuarantinedError", "ConsumerLagError",
}


def test_all_matches_the_pinned_surface():
    assert set(repro.__all__) == PINNED_EXPORTS


def test_every_export_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_no_duplicate_exports():
    assert len(repro.__all__) == len(set(repro.__all__))


def test_service_errors_carry_http_statuses():
    assert repro.ServiceError.status == 500
    assert repro.AuthenticationError.status == 401
    assert repro.UnknownTenantError.status == 404
    assert repro.QuotaExceededError.status == 429
    assert repro.TenantQuarantinedError.status == 503
    assert repro.ConsumerLagError.status == 409


def test_dataflow_errors_carry_http_statuses():
    assert repro.DataflowError.status == 400
    assert repro.DataflowCycleError.status == 409
    assert repro.UnknownStreamError.status == 404
    assert issubclass(repro.DataflowCycleError, repro.DataflowError)
    assert issubclass(repro.UnknownStreamError, repro.DataflowError)
    assert issubclass(repro.DataflowError, repro.SeraphError)
