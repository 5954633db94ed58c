"""The curated surfaces are pinned: additions and removals to
``repro.__all__``, ``repro.runtime.__all__`` and ``repro.stream.__all__``
must be deliberate (update these lists in the same change that edits
the package ``__init__``)."""

import subprocess
import sys

import pytest

import repro
import repro.runtime
import repro.stream

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


PINNED_RUNTIME_EXPORTS = {
    "ChaosConfig", "CircuitBreaker", "DeadLetterEntry", "DeadLetterQueue",
    "FailureSchedule", "FaultPolicy", "FlakySink", "FlakySource",
    "Ingress", "InjectedSinkFailure", "ReorderBuffer", "ResilientSink",
    "RetryPolicy", "decode_item", "engine_from_dict", "engine_from_json",
    "engine_to_dict", "load_checkpoint", "save_checkpoint",
}
PINNED_STREAM_EXPORTS = {
    "ActiveSubstreamPolicy", "FakeClock", "GeneratorSource", "ListSource",
    "PropertyGraphStream", "RESERVED_FIELDS", "ReplayDriver",
    "ReportPolicy", "ReportState", "SimulatedEventQueue",
    "SnapshotMaintainer", "StreamElement", "TimeAnnotatedTable",
    "TimeInterval", "TimeVaryingTable", "WIN_END", "WIN_START",
    "WindowConfig", "constant_rate_source", "snapshot_graph",
}
#: Names the process pool, the sharded engine and the count/session
#: windows took with them.
REMOVED = {
    repro.runtime: (
        "PoolExecutor", "PoolSupervisor", "SupervisorConfig",
        "ShardedEngine", "run_partitioned", "merge_emissions",
        "dead_letter_partition_handler", "ChaosInjector",
        "ChaosPoisonError",
    ),
    repro.stream: (
        "CountWindow", "SessionWindow", "partition_stream",
        "partition_elements", "split_element", "by_property",
        "by_relationship_type",
    ),
}


def test_all_matches_the_pinned_surface():
    assert set(repro.__all__) == PINNED_EXPORTS


@pytest.mark.parametrize("package, pinned", [
    (repro.runtime, PINNED_RUNTIME_EXPORTS),
    (repro.stream, PINNED_STREAM_EXPORTS),
], ids=["runtime", "stream"])
def test_subpackage_all_matches_the_pinned_surface(package, pinned):
    assert set(package.__all__) == pinned
    assert len(package.__all__) == len(pinned)
    for name in package.__all__:
        assert getattr(package, name) is not None
    for name in REMOVED[package]:
        assert not hasattr(package, name), name


def test_importing_the_package_starts_no_process_machinery():
    """Every evaluation runs in the engine's process, so ``import repro``
    loads neither ``multiprocessing`` nor the process-pool executor."""
    probe = (
        "import sys, repro, repro.cli, repro.service; "
        "print(sorted(name for name in sys.modules "
        "if name.startswith('multiprocessing') "
        "or name == 'concurrent.futures.process'))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe], check=True, capture_output=True,
        text=True, env={"PYTHONPATH": ":".join(sys.path)},
    ).stdout.strip()
    assert loaded == "[]"


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
