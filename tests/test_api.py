"""Tests for the unified front door: EngineConfig + build_engine."""

import pytest

from repro import EngineConfig, Observability, build_engine
from repro.errors import EngineError
from repro.runtime import Ingress, PoolExecutor
from repro.runtime.policies import FaultPolicy
from repro.seraph import SeraphEngine
from repro.stream.window import ActiveSubstreamPolicy
from repro.usecases.micromobility import LISTING5_SERAPH, _t, figure1_stream

from .modes import STACKS


class TestEngineConfig:
    def test_defaults_describe_the_plain_serial_engine(self):
        config = EngineConfig()
        assert config.policy is ActiveSubstreamPolicy.TRAILING
        assert config.delta_eval is True
        assert config.parallel_workers is None
        assert config.resilient is False
        assert config.observability is False

    @pytest.mark.parametrize("bad", [
        dict(parallel_workers=-1),
        dict(allowed_lateness=-5),
        dict(span_limit=-1),
        dict(reservoir=0),
        dict(graph_backend="bogus"),
    ])
    def test_invalid_fields_raise_at_construction(self, bad):
        with pytest.raises(EngineError):
            EngineConfig(**bad)

    def test_replace_copies_without_mutating(self):
        config = EngineConfig()
        changed = config.replace(resilient=True, allowed_lateness=30)
        assert changed.resilient is True
        assert changed.allowed_lateness == 30
        assert config.resilient is False
        assert changed is not config

    def test_replace_revalidates(self):
        with pytest.raises(EngineError):
            EngineConfig().replace(parallel_workers=-2)

    def test_resolve_observability_disabled_still_owns_a_registry(self):
        first = EngineConfig().resolve_observability()
        second = EngineConfig().resolve_observability()
        assert first.enabled is False and second.enabled is False
        assert first.registry is not second.registry
        assert first.tracer.span("anything") is first.tracer.span("else")

    def test_resolve_observability_true_builds_a_fresh_bundle(self):
        first = EngineConfig(observability=True).resolve_observability()
        second = EngineConfig(observability=True).resolve_observability()
        assert first.enabled and second.enabled
        assert first is not second
        assert first.registry is not second.registry

    def test_resolve_observability_accepts_an_existing_bundle(self):
        bundle = Observability.create()
        config = EngineConfig(observability=bundle)
        assert config.resolve_observability() is bundle

    def test_bundle_knobs_are_honored(self):
        bundle = EngineConfig(
            observability=True, span_limit=5, reservoir=2,
        ).resolve_observability()
        assert bundle.tracer.limit == 5
        assert bundle.registry.reservoir == 2


class TestNothingAmbientSelectsAMode:
    """Execution modes come from an explicit EngineConfig and nowhere
    else: the REPRO_* variables earlier releases read are inert."""

    def test_environment_does_not_reach_the_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_GRAPH_BACKEND", "columnar")
        monkeypatch.setenv("REPRO_VECTORIZED", "1")
        monkeypatch.setenv("REPRO_DELTA_EVAL", "0")
        monkeypatch.setenv("REPRO_PHYSICAL_PLANS", "0")
        monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "2")
        for engine in (SeraphEngine(), build_engine()):
            assert type(engine) is SeraphEngine
            status = engine.status()
            assert status["graph_backend"] == "reference"
            assert status["vectorized"] is False
            assert status["delta_eval"] is True
            assert status["planner"]["physical_plans"] is True


class TestBuildEngine:
    def test_default_is_an_engine_without_parts(self):
        engine = build_engine()
        assert type(engine) is SeraphEngine
        assert engine.ingress is None and engine.executor is None
        assert engine.obs.enabled is False

    @pytest.mark.parametrize("stack", sorted(STACKS))
    def test_every_stack_is_one_engine_type(self, stack):
        with build_engine(EngineConfig(**STACKS[stack])) as engine:
            assert type(engine) is SeraphEngine
            assert (engine.ingress is not None) \
                is STACKS[stack].get("resilient", False)
            assert (engine.executor is not None) \
                is ("parallel_workers" in STACKS[stack])

    def test_parallel_workers_gives_the_engine_an_executor(self):
        with build_engine(EngineConfig(parallel_workers=2)) as engine:
            assert isinstance(engine.executor, PoolExecutor)
            assert engine.executor.workers == 2

    def test_resilient_gives_the_engine_an_ingress(self):
        engine = build_engine(EngineConfig(
            resilient=True, allowed_lateness=45,
            late_policy=FaultPolicy.SKIP,
        ))
        assert isinstance(engine.ingress, Ingress)
        assert engine.ingress.allowed_lateness == 45
        assert engine.ingress.late_policy is FaultPolicy.SKIP

    def test_overrides_are_field_level_shortcuts(self):
        engine = build_engine(delta_eval=False)
        assert engine.delta_eval is False

    def test_overrides_layer_on_top_of_a_config(self):
        config = EngineConfig(resilient=True)
        engine = build_engine(config, allowed_lateness=10)
        assert engine.ingress.allowed_lateness == 10
        assert config.allowed_lateness == 0  # the config is untouched

    def test_core_knobs_reach_the_engine(self):
        engine = build_engine(EngineConfig(
            policy=ActiveSubstreamPolicy.EARLIEST_CONTAINING,
            reuse_unchanged_windows=False,
            delta_eval=False,
        ))
        assert engine.policy is ActiveSubstreamPolicy.EARLIEST_CONTAINING
        assert engine.reuse_unchanged_windows is False
        assert engine.delta_eval is False

    def test_graph_backend_reaches_the_engine_and_status(self):
        engine = build_engine(EngineConfig(graph_backend="columnar"))
        assert engine.graph_backend == "columnar"
        assert engine.status()["graph_backend"] == "columnar"
        from repro.graph.columnar import ColumnarGraph

        assert engine._graph_cls is ColumnarGraph

    def test_every_part_shares_one_observability_bundle(self):
        with build_engine(EngineConfig(
            resilient=True, parallel_workers=2, observability=True,
        )) as engine:
            assert engine.obs.enabled is True
            assert engine.ingress.obs is engine.obs
            assert engine.executor.obs is engine.obs
            assert engine.executor.supervisor.obs is engine.obs
            assert engine.dead_letters.registry is engine.obs.registry

    def test_one_bundle_can_span_several_engines(self):
        bundle = Observability.create()
        first = build_engine(EngineConfig(observability=bundle))
        second = build_engine(EngineConfig(observability=bundle))
        assert first.obs is second.obs is bundle

    def test_built_engine_runs_and_reports_unified_status(self):
        engine = build_engine(EngineConfig(
            resilient=True, observability=True,
        ))
        engine.register(LISTING5_SERAPH)
        emissions = engine.run_stream(figure1_stream(), until=_t("15:40"))
        assert len(emissions) == 12
        status = engine.unified_status()
        assert status["schema"]["name"] == "repro.status"
        assert status["engine"]["queries"]["student_trick"][
            "evaluations"] == 12
        assert status["resilience"]["metrics"]["ingested"] == 5
        assert status["obs"]["enabled"] is True


class TestPartsConstructDirectly:
    def test_an_executor_is_passed_to_the_engine(self):
        with SeraphEngine(executor=PoolExecutor(2)) as engine:
            assert engine.executor.workers == 2

    def test_an_ingress_is_passed_to_the_engine(self):
        engine = SeraphEngine(delta_eval=False, ingress=Ingress())
        assert engine.delta_eval is False
        assert engine.status()["resilience"]["allowed_lateness"] == 0
