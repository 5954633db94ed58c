"""Parallel sharded execution: determinism, scheduling, checkpointing.

The contract under test (docs/PARALLEL.md): every parallel configuration
emits **byte-identically** to the serial engine — parallelism may only
change wall-clock time, never a result.
"""

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.errors import CheckpointError, EngineError, PartitionError
from repro.graph.model import Node, PropertyGraph, Relationship
from repro.graph.table import Record, Table
from repro.runtime import (
    DeadLetterQueue,
    PoolExecutor,
    ShardedEngine,
    engine_from_dict,
    engine_to_dict,
    merge_emissions,
    run_partitioned,
)
from repro.seraph import CollectingSink, SeraphEngine
from repro.seraph.sinks import Emission
from repro.stream.stream import StreamElement
from repro.stream.timeline import TimeInterval
from repro.stream.tvt import TimeAnnotatedTable

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

CHAIN_QUERY = """
REGISTER QUERY chains STARTING AT 1970-01-01T00:00
{
  MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) WITHIN PT40S
  EMIT id(a) AS src, id(c) AS dst SNAPSHOT EVERY PT10S
}
"""

# shortestPath is delta-ineligible, so this one always takes the full
# evaluation path — the offloadable case.
ROUTE_QUERY = """
REGISTER QUERY routes STARTING AT 1970-01-01T00:00
{
  MATCH p = shortestPath((a:Person)-[:KNOWS*..4]->(c:Person)) WITHIN PT60S
  WHERE id(a) <> id(c)
  EMIT id(a) AS src, id(c) AS dst, length(p) AS hops
  SNAPSHOT EVERY PT20S
}
"""


def _element(index, tenant=0, instant=None):
    base = 10_000 * tenant + 3 * index
    nodes = [
        Node(id=base + offset, labels=("Person",),
             properties=(("tenant", tenant),))
        for offset in range(3)
    ]
    rels = [
        Relationship(id=2 * (1000 * tenant + index), type="KNOWS",
                     src=base, trg=base + 1, properties=()),
        Relationship(id=2 * (1000 * tenant + index) + 1, type="KNOWS",
                     src=base + 1, trg=base + 2, properties=()),
    ]
    return StreamElement(
        graph=PropertyGraph.of(nodes, rels),
        instant=instant if instant is not None else 10 * (index + 1),
    )


@pytest.fixture(scope="module")
def stream():
    return [_element(index) for index in range(8)]


@pytest.fixture(scope="module")
def pool():
    with ProcessPoolExecutor(max_workers=2) as executor:
        yield executor


def pooled(workers=2, **options):
    """An engine that owns a pool executor; engine options pass through."""
    executor = PoolExecutor(workers, **{
        key: options.pop(key) for key in ("pool", "offload_threshold")
        if key in options
    })
    return SeraphEngine(executor=executor, **options)


def counter(engine, name):
    return engine.obs.registry.value(f"parallel.{name}")


def _run(engine, stream, queries=(CHAIN_QUERY, ROUTE_QUERY)):
    sinks = [CollectingSink() for _ in queries]
    for text, sink in zip(queries, sinks):
        engine.register(text, sink=sink)
    engine.run_stream(stream)
    return [e.render() for sink in sinks for e in sink.emissions]


class TestConstruction:
    def test_front_door_gives_the_engine_an_executor(self):
        from repro import EngineConfig, build_engine

        engine = build_engine(EngineConfig(parallel_workers=2))
        assert type(engine) is SeraphEngine
        assert engine.executor.workers == 2
        engine.close()

    def test_plain_construction_has_no_executor(self):
        assert SeraphEngine().executor is None

    def test_workers_zero_means_cpu_count(self):
        assert PoolExecutor(0).workers >= 1

    def test_direct_construction_keeps_engine_options(self):
        engine = pooled(3, reference=True)
        assert engine.executor.workers == 3
        assert engine.reference is True
        engine.close()


class TestByteIdenticalEmissions:
    @pytest.mark.parametrize("reference", [False, True])
    def test_forced_offload_equals_serial(self, stream, pool, reference):
        serial = _run(SeraphEngine(reference=reference), stream)
        engine = pooled(pool=pool, offload_threshold=0.0,
                        reference=reference)
        assert _run(engine, stream) == serial
        assert counter(engine, "offloaded_evaluations") > 0
        if not reference:
            # The delta-eligible query stays on its in-parent delta path;
            # only the shortestPath query crosses the process boundary.
            assert counter(engine, "inline_evaluations") == 0

    def test_default_threshold_equals_serial(self, stream):
        serial = _run(SeraphEngine(), stream)
        with pooled() as engine:
            assert _run(engine, stream) == serial
            # Tiny snapshots: the cost model kept everything in-parent
            # and the pool was never created.
            assert counter(engine, "offloaded_evaluations") == 0
            assert counter(engine, "scheduler_parallel") == 0
            assert engine.executor.supervisor.pool is None

    def test_shared_window_queries_group_into_one_task(self, stream, pool):
        # Same stream, same WITHIN → one window signature → the whole
        # batch ships as a single group per pass.
        variant = ROUTE_QUERY.replace(
            "REGISTER QUERY routes", "REGISTER QUERY routes_b"
        )
        engine = pooled(pool=pool, offload_threshold=0.0)
        serial = _run(
            SeraphEngine(), stream, queries=(ROUTE_QUERY, variant)
        )
        assert _run(engine, stream, queries=(ROUTE_QUERY, variant)) == serial
        assert counter(engine, "offloaded_evaluations") \
            == 2 * counter(engine, "offloaded_groups")

    def test_metrics_counters_and_status(self, stream, pool):
        engine = pooled(pool=pool, offload_threshold=0.0)
        _run(engine, stream, queries=(ROUTE_QUERY,))
        assert counter(engine, "batches") > 0
        assert counter(engine, "max_queue_depth") >= 1
        worker_tasks = sum(
            histogram.count for _name, histogram
            in engine.obs.registry.under("parallel.worker.")
        )
        assert worker_tasks == counter(engine, "offloaded_groups")
        assert counter(engine, "scheduler_parallel") \
            == counter(engine, "offloaded_evaluations")
        info = engine.status()
        assert info["parallel"]["workers"] == 2
        assert info["parallel"]["offloaded_evaluations"] \
            == counter(engine, "offloaded_evaluations") > 0


class TestWorkerPlanCache:
    """The worker function driven in-process: what a pool worker retains
    across tasks is bounded like the parent's plan cache."""

    @staticmethod
    def _task(plan, graph):
        import pickle

        # Every task delivers a freshly unpickled copy, as the pool does.
        shipped = pickle.loads(pickle.dumps(plan))
        return ({plan.stages[0].window_key: graph}, [(shipped, 0, 60)])

    @pytest.fixture()
    def worker(self, monkeypatch):
        from repro.runtime import parallel

        monkeypatch.setattr(parallel, "_WORKER_PLANS", {})
        return parallel

    def _plans(self, graph, count):
        from repro.cypher.physical import compile_query
        from repro.seraph.parser import parse_seraph

        query = parse_seraph(ROUTE_QUERY)
        return [
            compile_query(query, lambda _s, _w: graph, band=(index,))
            for index in range(count)
        ]

    def test_alternating_bands_do_not_grow_the_cache(self, worker, stream):
        graph = stream[0].graph
        plans = self._plans(graph, 2)

        def retained():
            bands = worker._WORKER_PLANS[plans[0].query_text]
            return len(bands), sum(
                len(expr_cache) for _plan, expr_cache in bands.values()
            )

        sizes = []
        for task in range(40):
            _pid, _elapsed, (table,), _timings, (profile,) = \
                worker._worker_evaluate_group(
                    self._task(plans[task % 2], graph)
                )
            assert sum(profile.rows.values()) > 0
            sizes.append(retained())
        # One plan copy and one expression cache per band, filled by the
        # band's first task and only read afterwards.
        assert sizes[1][0] == 2 and sizes[1][1] > 0
        assert sizes[2:] == [sizes[1]] * 38

    def test_retention_is_the_parents_bound(self, worker, stream):
        from repro.cypher.plan_cache import PLANS_PER_QUERY

        graph = stream[0].graph
        plans = self._plans(graph, PLANS_PER_QUERY + 3)
        for plan in plans:
            worker._worker_evaluate_group(self._task(plan, graph))
        bands = worker._WORKER_PLANS[plans[0].query_text]
        assert list(bands) == [plan.band for plan in plans[3:]]

    def test_a_recompiled_band_replaces_the_retained_copy(self, worker,
                                                          stream):
        """Bands are retained per worker in the order *it* saw them, so a
        worker can still hold a plan the parent evicted and recompiled
        under other statistics; it must run the plan it was sent."""
        import dataclasses

        graph = stream[0].graph
        (plan,) = self._plans(graph, 1)
        worker._worker_evaluate_group(self._task(plan, graph))
        recompiled = dataclasses.replace(plan, op_count=plan.op_count + 1)
        worker._worker_evaluate_group(self._task(recompiled, graph))
        (kept, _expr_cache), = worker._WORKER_PLANS[plan.query_text].values()
        assert kept == recompiled


class TestCheckpoint:
    def test_roundtrip_preserves_parallelism(self, stream):
        with pooled(3) as engine:
            sink = CollectingSink()
            engine.register(CHAIN_QUERY, sink=sink)
            engine.run_stream(stream[:4])
            document = engine_to_dict(engine)
        assert document["config"]["parallel_workers"] == 3
        restored = engine_from_dict(document)
        try:
            assert restored.executor.workers == 3
        finally:
            restored.close()

    def test_serial_checkpoint_restores_serial(self, stream):
        engine = SeraphEngine()
        engine.register(CHAIN_QUERY)
        engine.run_stream(stream[:4])
        document = engine_to_dict(engine)
        assert document["config"]["parallel_workers"] is None
        assert engine_from_dict(document).executor is None

    def test_restored_parallel_engine_continues_like_serial(self, stream):
        def finish(engine, sink):
            engine.run_stream(stream[4:])
            return [e.render() for e in sink.emissions]

        serial_engine = SeraphEngine()
        serial_sink = CollectingSink()
        serial_engine.register(CHAIN_QUERY, sink=serial_sink)
        serial_engine.run_stream(stream[:4])
        expected = finish(serial_engine, serial_sink)

        with pooled(offload_threshold=0.0) as engine:
            sink = CollectingSink()
            engine.register(CHAIN_QUERY, sink=sink)
            engine.run_stream(stream[:4])
            head = [e.render() for e in sink.emissions]
            document = engine_to_dict(engine)
        tail_sink = CollectingSink()
        restored = engine_from_dict(document, sinks={"chains": tail_sink})
        try:
            restored.executor.offload_threshold = 0.0
            restored.run_stream(stream[4:])
            resumed = head + [e.render() for e in tail_sink.emissions]
        finally:
            restored.close()
        assert resumed == expected


class TestMergeEmissions:
    @staticmethod
    def _emission(name, instant, rows):
        table = Table([Record({"v": value}) for value in rows], fields=["v"])
        return Emission(
            query_name=name,
            instant=instant,
            table=TimeAnnotatedTable(
                table=table, interval=TimeInterval(instant - 10, instant)
            ),
        )

    def test_orders_by_instant_then_registration(self):
        merged = merge_emissions(
            [
                [self._emission("b", 20, [1])],
                [self._emission("a", 10, [2]), self._emission("a", 20, [3])],
            ],
            query_order=["a", "b"],
        )
        assert [(e.query_name, e.instant) for e in merged] == [
            ("a", 10), ("a", 20), ("b", 20),
        ]

    def test_same_key_tables_bag_union_in_shard_order(self):
        merged = merge_emissions(
            [
                [self._emission("a", 10, [1, 2])],
                [self._emission("a", 10, [3])],
            ],
            query_order=["a"],
        )
        assert len(merged) == 1
        assert [record["v"] for record in merged[0].table.table] == [1, 2, 3]

    def test_single_shard_is_identity(self):
        emissions = [self._emission("a", 10, [1]),
                     self._emission("a", 20, [2])]
        merged = merge_emissions([emissions], query_order=["a"])
        assert [e.render() for e in merged] == [e.render() for e in emissions]

    def test_unregistered_query_raises(self):
        with pytest.raises(EngineError, match="unregistered"):
            merge_emissions(
                [[self._emission("ghost", 10, [1])]], query_order=["a"]
            )


def _classify_tenant(element):
    return f"tenant-{min(element.graph.nodes) // 10_000}"


def _assert_bag_equivalent(left, right):
    """Same emission sequence, tables compared as bags.

    Replica state travels between ``run()`` calls as checkpoint
    documents, and the checkpoint contract (runtime/checkpoint.py) is
    bag-equal — a restored replica rebuilds its snapshot union from
    scratch, which may enumerate rows in a different order."""
    assert [(e.query_name, e.instant) for e in left] \
        == [(e.query_name, e.instant) for e in right]
    for one, other in zip(left, right):
        assert one.table.table.bag_equals(other.table.table)


@pytest.fixture(scope="module")
def tenant_stream():
    return [
        _tenant
        for index in range(10)
        for _tenant in (
            _element(index, tenant=0, instant=10 * index + 1),
            _element(index, tenant=1, instant=10 * index + 2),
            _element(index, tenant=2, instant=10 * index + 3),
        )
    ]


class TestShardedEngine:
    def test_workers_equals_inline(self, tenant_stream, pool):
        def run(workers, injected=None):
            with ShardedEngine(
                queries=[CHAIN_QUERY], classify=_classify_tenant,
                shards=3, workers=workers, pool=injected,
            ) as engine:
                return [e.render() for e in engine.run(tenant_stream)]

        assert run(2, injected=pool) == run(1)

    def test_decomposable_workload_equals_single_engine(self, tenant_stream):
        engine = SeraphEngine()
        sink = CollectingSink()
        engine.register(CHAIN_QUERY, sink=sink)
        engine.run_stream(tenant_stream)
        merged = run_partitioned(
            [CHAIN_QUERY], tenant_stream, _classify_tenant, shards=2
        )
        assert len(merged) == len(sink.emissions)
        for left, right in zip(merged, sink.emissions):
            assert left.query_name == right.query_name
            assert left.instant == right.instant
            assert left.table.table.bag_equals(right.table.table)

    def test_assignment_is_first_seen_round_robin(self, tenant_stream):
        with ShardedEngine(
            queries=[CHAIN_QUERY], classify=_classify_tenant, shards=2
        ) as engine:
            engine.run(tenant_stream)
            assert engine.assignment == {
                "tenant-0": 0, "tenant-1": 1, "tenant-2": 0,
            }

    def test_incremental_runs_accumulate_state(self, tenant_stream):
        with ShardedEngine(
            queries=[CHAIN_QUERY], classify=_classify_tenant, shards=2
        ) as engine:
            first = engine.run(tenant_stream[:15], until=51)
            second = engine.run(tenant_stream[15:])
        with ShardedEngine(
            queries=[CHAIN_QUERY], classify=_classify_tenant, shards=2
        ) as engine:
            whole = engine.run(tenant_stream)
        _assert_bag_equivalent(first + second, whole)

    def test_checkpoint_roundtrip_resumes(self, tenant_stream):
        with ShardedEngine(
            queries=[CHAIN_QUERY], classify=_classify_tenant, shards=2
        ) as engine:
            head = engine.run(tenant_stream[:15], until=51)
            document = engine.to_dict()
        with ShardedEngine.from_dict(document, _classify_tenant) as restored:
            assert restored.assignment == {
                "tenant-0": 0, "tenant-1": 1, "tenant-2": 0,
            }
            tail = restored.run(tenant_stream[15:])
        with ShardedEngine(
            queries=[CHAIN_QUERY], classify=_classify_tenant, shards=2
        ) as engine:
            whole = engine.run(tenant_stream)
        _assert_bag_equivalent(head + tail, whole)

    def test_checkpoint_rejects_bad_documents(self):
        with pytest.raises(CheckpointError, match="version"):
            ShardedEngine.from_dict({"version": 99}, _classify_tenant)
        with pytest.raises(CheckpointError, match="malformed"):
            ShardedEngine.from_dict({"version": 1}, _classify_tenant)

    def test_invalid_shard_count(self):
        with pytest.raises(EngineError, match="positive"):
            ShardedEngine(queries=[CHAIN_QUERY],
                          classify=_classify_tenant, shards=0)


class TestPartitionFaults:
    @staticmethod
    def _classify_flaky(element):
        if element.instant == 21:
            raise ValueError("boom")
        return _classify_tenant(element)

    def test_classifier_failure_fails_fast_without_queue(self, tenant_stream):
        with ShardedEngine(
            queries=[CHAIN_QUERY], classify=self._classify_flaky, shards=2
        ) as engine:
            with pytest.raises(PartitionError, match="classifier failed"):
                engine.run(tenant_stream)

    def test_classifier_failure_routes_to_dead_letters(self, tenant_stream):
        queue = DeadLetterQueue()
        with ShardedEngine(
            queries=[CHAIN_QUERY], classify=self._classify_flaky,
            shards=2, dead_letters=queue,
        ) as engine:
            merged = engine.run(tenant_stream)
        assert len(queue) == 1
        entry = queue.entries[0]
        assert entry.instant == 21
        assert "boom" in entry.reason
        # The surviving elements still produced the other tenants' output.
        assert merged

        clean = [e for e in tenant_stream if e.instant != 21]
        with ShardedEngine(
            queries=[CHAIN_QUERY], classify=_classify_tenant, shards=2,
        ) as engine:
            expected = engine.run(clean, until=tenant_stream[-1].instant)
        assert [e.render() for e in merged] == [e.render() for e in expected]
