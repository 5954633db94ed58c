"""Chaos runs against the supervised runtime (ROADMAP item 5).

The acceptance contract of the supervision layer: with seeded worker
kills and poison-task bursts enabled, the parallel engine's emissions
stay **byte-identical** to the serial engine, the supervision document
records the recovery work, and exceeding the crash budget degrades to
in-parent execution instead of raising.  All faults are driven by
:class:`ChaosConfig` seeds, so every run here reproduces exactly.
"""

from __future__ import annotations

import pytest

from repro.api import EngineConfig, build_engine
from repro.errors import EngineError, ParallelExecutionError
from repro.runtime import (
    ChaosConfig,
    PoolExecutor,
    PoolSupervisor,
    Ingress,
    ShardedEngine,
    SupervisorConfig,
)
from repro.runtime.faults import FlakySink, FlakySource
from repro.runtime.resilient_sink import RetryPolicy
from repro.seraph import CollectingSink, SeraphEngine

from tests.modes import SLOW_TWIN
from tests.runtime.test_parallel import (
    CHAIN_QUERY,
    ROUTE_QUERY,
    _element,
)

pytestmark = pytest.mark.chaos

#: Chaos profile for the acceptance runs: murderous enough to force
#: pool rebuilds and poison retries, survivable enough to finish pooled.
KILL_AND_POISON = ChaosConfig(
    seed=11, worker_kill_rate=0.25, worker_poison_rate=0.25
)


def _stream(count=8, tenant=0):
    return [_element(index, tenant=tenant) for index in range(count)]


def _run(engine, stream, queries=(CHAIN_QUERY, ROUTE_QUERY)):
    sinks = [CollectingSink() for _ in queries]
    for text, sink in zip(queries, sinks):
        engine.register(text, sink=sink)
    engine.run_stream(stream)
    return [e.render() for sink in sinks for e in sink.emissions]


def _pooled(supervisor=None, ingress=None):
    """A reference engine (no delta path, no reuse) whose every
    evaluation is offloaded."""
    return SeraphEngine(
        reference=True, ingress=ingress,
        executor=PoolExecutor(
            2, offload_threshold=0.0, supervisor=supervisor
        ),
    )


def _chaotic_supervisor(chaos, **config_kwargs):
    """A supervisor that never sleeps through backoff (test speed)."""
    return PoolSupervisor(
        2,
        config=SupervisorConfig(**config_kwargs),
        chaos=chaos,
        sleep=lambda _s: None,
    )


class TestChaosByteIdentical:
    """The headline property: emissions survive murdered workers."""

    def test_kills_and_poison_keep_emissions_byte_identical(self):
        serial = _run(SeraphEngine(reference=True), _stream())
        engine = _pooled(
            _chaotic_supervisor(KILL_AND_POISON, max_restarts=50),
        )
        with engine:
            chaotic = _run(engine, _stream())
            supervision = engine.status()["supervision"]
        assert chaotic == serial
        assert supervision["pool_rebuilds"] >= 1
        assert supervision["mode"] == "pooled"
        chaos = supervision["chaos"]
        assert chaos["seed"] == 11
        assert chaos["kills"] >= 1 and chaos["poisons"] >= 1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_any_seed_converges_to_serial(self, seed):
        serial = _run(SeraphEngine(reference=True), _stream())
        engine = _pooled(
            _chaotic_supervisor(
                ChaosConfig(
                    seed=seed, worker_kill_rate=0.2,
                    worker_poison_rate=0.2, result_drop_rate=0.1,
                ),
                max_restarts=50,
            ),
        )
        with engine:
            assert _run(engine, _stream()) == serial

    def test_sharded_engine_survives_chaos(self):
        elements = sorted(
            _stream(6, tenant=1) + _stream(6, tenant=2),
            key=lambda el: el.instant,
        )
        classify = (
            lambda el: f"t{next(iter(el.graph.nodes.values())).property('tenant')}"
        )
        with ShardedEngine(
            [CHAIN_QUERY], classify, shards=2, workers=1
        ) as baseline_engine:
            baseline = [
                e.render() for e in baseline_engine.run(elements)
            ]
        chaotic_engine = ShardedEngine(
            [CHAIN_QUERY], classify, shards=2, workers=2,
            supervisor=_chaotic_supervisor(
                ChaosConfig(seed=4, worker_kill_rate=0.4), max_restarts=50
            ),
        )
        with chaotic_engine:
            chaotic = [e.render() for e in chaotic_engine.run(elements)]
            supervision = chaotic_engine.status()["supervision"]
        assert chaotic == baseline
        assert supervision["worker_crashes"] >= 1


class TestCrashBudget:
    def test_exceeding_the_budget_degrades_instead_of_raising(self):
        serial = _run(SeraphEngine(reference=True), _stream())
        engine = _pooled(
            _chaotic_supervisor(
                ChaosConfig(seed=0, worker_kill_rate=1.0), max_restarts=1
            ),
        )
        with engine:
            emissions = _run(engine, _stream())
            supervision = engine.status()["supervision"]
        assert emissions == serial
        assert supervision["mode"] == "degraded"
        assert supervision["degraded_transitions"] == 1
        assert supervision["inline_tasks"] > 0

    def test_degrade_disabled_raises_typed_error(self):
        engine = _pooled(
            _chaotic_supervisor(
                ChaosConfig(seed=0, worker_kill_rate=1.0),
                max_restarts=0, degrade=False,
            ),
        )
        with engine:
            with pytest.raises(ParallelExecutionError) as info:
                _run(engine, _stream())
        assert info.value.workers == 2
        # The signature names the window group that was in flight.
        assert isinstance(info.value.signature, tuple)


class TestCheckpointAcrossPoolCrash:
    """Satellite: restore from the last checkpoint after a mid-stream
    pool crash; the emission tail is bag-equal to an uninterrupted
    serial run."""

    def test_restore_resumes_with_bag_equal_tail(self, tmp_path):
        elements = _stream(8)
        head, tail = elements[:4], elements[4:]

        serial = SeraphEngine(reference=True, ingress=Ingress())
        serial.register(ROUTE_QUERY)
        serial_head = [e.render() for e in serial.run_stream(
            head, until=head[-1].instant
        )]
        serial_tail = [e.render() for e in serial.run_stream(tail)]

        engine = _pooled(ingress=Ingress())
        engine.register(ROUTE_QUERY)
        live_head = [e.render() for e in engine.run_stream(
            head, until=head[-1].instant
        )]
        assert live_head == serial_head
        checkpoint = engine.checkpoint()
        engine.close()

        # The continuation hits an unsupervivable pool: every task's
        # worker dies, the budget is zero, degradation is off — the
        # typed error escapes mid-stream, exactly a crashed deployment.
        doomed = _pooled(
            _chaotic_supervisor(
                ChaosConfig(seed=0, worker_kill_rate=1.0),
                max_restarts=0, degrade=False,
            ),
            ingress=Ingress(),
        )
        doomed.register(ROUTE_QUERY)
        with pytest.raises(ParallelExecutionError):
            doomed.run_stream(tail)
        doomed.close()

        # Recovery: rebuild from the checkpoint, replay the tail.
        restored = SeraphEngine.from_checkpoint(checkpoint)
        assert restored.executor is not None
        restored_tail = [e.render() for e in restored.run_stream(tail)]
        restored.close()
        assert sorted(restored_tail) == sorted(serial_tail)


class TestEngineConfigChaosPath:
    """Satellite: FlakySink/FlakySource run through EngineConfig, so the
    CLI and the chaos harness share one seeded fault path."""

    def test_source_chaos_quarantines_poison_and_preserves_emissions(self):
        clean = build_engine(EngineConfig(resilient=True))
        clean.register(CHAIN_QUERY)
        expected = [
            e.render() for e in clean.run_stream(_stream())
        ]

        chaotic = build_engine(EngineConfig(
            resilient=True, allowed_lateness=30,
            chaos=ChaosConfig(seed=5, source_poison_rate=0.4),
        ))
        chaotic.register(CHAIN_QUERY)
        emissions = [e.render() for e in chaotic.run_stream(_stream())]
        assert emissions == expected
        assert chaotic.obs.registry.value("resilience.poison_rejected") >= 1
        assert len(chaotic.dead_letters) >= 1

    def test_displaced_arrivals_are_resequenced(self):
        clean = build_engine(EngineConfig(resilient=True))
        clean.register(CHAIN_QUERY)
        expected = [e.render() for e in clean.run_stream(_stream())]

        chaotic = build_engine(EngineConfig(
            resilient=True, allowed_lateness=30,
            chaos=ChaosConfig(seed=5, source_displace_rate=0.4,
                              source_displace_by=2),
        ))
        chaotic.register(CHAIN_QUERY)
        emissions = [e.render() for e in chaotic.run_stream(_stream())]
        assert emissions == expected
        assert chaotic.obs.registry.value("resilience.reordered") >= 1

    def test_sink_chaos_is_absorbed_by_delivery_retries(self):
        clean = build_engine(EngineConfig(resilient=True))
        clean.register(CHAIN_QUERY)
        expected = [e.render() for e in clean.run_stream(_stream())]

        chaotic = build_engine(EngineConfig(
            resilient=True,
            chaos=ChaosConfig(seed=6, sink_failure_rate=0.3),
            retry=RetryPolicy(max_attempts=6, base_delay=0.0,
                              max_delay=0.0, jitter=0.0),
        ))
        sink = CollectingSink()
        chaotic.register(CHAIN_QUERY, sink=sink)
        chaotic.run_stream(_stream())
        # The flaky layer sits under the resilient one: the user sink
        # still received every emission the clean run produced.
        assert [e.render() for e in sink.emissions] == expected
        assert chaotic.obs.registry.value("resilience.retried") >= 1
        # sink() unwraps both resilience and chaos layers.
        assert chaotic.sink("chains") is sink

    def test_chaos_profile_drives_every_axis_from_one_seed(self):
        profile = ChaosConfig.profile(seed=9)
        assert profile.wants_worker_chaos
        assert profile.wants_source_chaos
        assert profile.wants_sink_chaos
        assert isinstance(profile.source([]), FlakySource)
        assert isinstance(profile.sink(CollectingSink()), FlakySink)

    def test_config_rejects_non_chaosconfig(self):
        with pytest.raises(EngineError, match="chaos"):
            EngineConfig(chaos="0.5")

    def test_full_profile_end_to_end_through_build_engine(self):
        engine = build_engine(EngineConfig(
            parallel_workers=2, offload_threshold=0.0, **SLOW_TWIN,
            resilient=True, allowed_lateness=30,
            max_worker_restarts=50,
            chaos=ChaosConfig(
                seed=13, worker_kill_rate=0.2, worker_poison_rate=0.2,
                source_poison_rate=0.2, sink_failure_rate=0.2,
            ),
            retry=RetryPolicy(max_attempts=6, base_delay=0.0,
                              max_delay=0.0, jitter=0.0),
        ))
        clean = build_engine(EngineConfig(
            resilient=True, **SLOW_TWIN,
        ))
        for target in (engine, clean):
            target.register(CHAIN_QUERY)
        expected = [e.render() for e in clean.run_stream(_stream())]
        try:
            emissions = [e.render() for e in engine.run_stream(_stream())]
        finally:
            engine.close()
        assert emissions == expected
        status = engine.unified_status()
        assert status["supervision"]["workers"] == 2
        assert status["supervision"]["chaos"]["seed"] == 13
