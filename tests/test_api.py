"""Tests for the unified front door: EngineConfig + build_engine."""

import pytest

from repro import EngineConfig, Observability, build_engine
from repro.api import PRODUCTION_MODE, REFERENCE_MODE, reference_mode
from repro.errors import EngineError, EngineModeError
from repro.runtime import ChaosConfig, Ingress
from repro.runtime.policies import FaultPolicy
from repro.seraph import SeraphEngine
from repro.stream.window import ActiveSubstreamPolicy
from repro.usecases.micromobility import LISTING5_SERAPH, _t, figure1_stream

from .modes import (
    MODE_SELECTIONS,
    SLOW_TWIN,
    STACKS,
    assert_names_the_offending_fields,
    expected_mode,
    selection_id,
)


class TestEngineConfig:
    def test_defaults_describe_the_plain_serial_engine(self):
        config = EngineConfig()
        assert config.policy is ActiveSubstreamPolicy.TRAILING
        assert reference_mode(vars(config)) is False
        assert config.resilient is False
        assert config.observability is False

    @pytest.mark.parametrize("bad", [
        dict(allowed_lateness=-5),
        dict(span_limit=-1),
        dict(reservoir=0),
        dict(graph_backend="bogus"),
        dict(delta_eval=False),
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
            EngineConfig().replace(allowed_lateness=-2)

    @pytest.mark.parametrize("chaos", [
        ChaosConfig(seed=1, sink_failure_rate=1.0, source_poison_rate=1.0),
        ChaosConfig(seed=1, source_displace_rate=0.5),
        ChaosConfig(seed=1),
    ], ids=["sink+source", "displace", "all-rates-zero"])
    def test_chaos_without_the_ingress_is_a_typed_error(self, chaos):
        """Only the ingress injects chaos: on an engine without one the
        config used to be accepted and silently ignored."""
        with pytest.raises(EngineError, match="resilient=True"):
            EngineConfig(chaos=chaos)
        with pytest.raises(EngineError, match="resilient=True"):
            EngineConfig(resilient=True, chaos=chaos).replace(
                resilient=False)
        assert build_engine(resilient=True, chaos=chaos).ingress is not None

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
            assert engine.status()["mode"] == "production"


class TestModeNormaliser:
    """Six mode names, two behaviours: every name at its default is
    production, exactly the slow twin's values are the reference engine,
    anything else is a typed error naming the offending fields."""

    @pytest.mark.parametrize("field,value", [
        ("delta_eval", False),
        ("incremental", False),
        ("reuse_unchanged_windows", False),
        ("physical_plans", False),
        ("graph_backend", "columnar"),
        ("vectorized", True),
    ])
    def test_a_partial_ablation_is_a_typed_error_naming_the_field(
        self, field, value
    ):
        with pytest.raises(EngineModeError, match=field) as raised:
            EngineConfig(**{field: value})
        assert isinstance(raised.value, EngineError)
        assert "reference twin" in str(raised.value)

    @pytest.mark.parametrize("field", ["graph_backend", "vectorized"])
    def test_the_removed_selections_say_they_were_removed(self, field):
        value = {"graph_backend": "columnar", "vectorized": True}[field]
        with pytest.raises(EngineModeError, match="was removed"):
            EngineConfig(**{field: value})
        with pytest.raises(EngineModeError, match="was removed"):
            EngineConfig(**{**SLOW_TWIN, field: value})

    def test_one_field_off_the_slow_twin_names_that_field(self):
        with pytest.raises(EngineModeError,
                           match="physical_plans=True select neither"):
            EngineConfig(**{**SLOW_TWIN, "physical_plans": True})

    def test_the_slow_twin_builds_the_reference_engine(self):
        engine = build_engine(EngineConfig(**SLOW_TWIN))
        assert engine.reference is True
        assert engine.status()["mode"] == "reference"

    def test_defaults_build_the_production_engine(self):
        for config in (EngineConfig(), EngineConfig(vectorized=False),
                       EngineConfig(**PRODUCTION_MODE)):
            engine = build_engine(config)
            assert engine.reference is False
            assert engine.status()["mode"] == "production"

    def test_reference_mode_reads_only_the_six_names(self):
        assert reference_mode({}) is False
        assert reference_mode({"policy": "x", "vectorized": None}) is False
        assert reference_mode(REFERENCE_MODE) is True
        assert reference_mode({**REFERENCE_MODE, "vectorized": None}) is True

    @pytest.mark.parametrize("selection", MODE_SELECTIONS, ids=selection_id)
    def test_every_selection_is_production_reference_or_a_typed_error(
        self, selection
    ):
        mode = expected_mode(selection)
        if mode is None:
            with pytest.raises(EngineModeError) as raised:
                EngineConfig(**selection)
            assert_names_the_offending_fields(selection, str(raised.value))
        else:
            engine = build_engine(EngineConfig(**selection))
            assert engine.status()["mode"] == mode
            assert engine.reference is (mode == "reference")

    @pytest.mark.parametrize("value", [0, 1, "false", None])
    def test_a_mode_flag_must_be_a_boolean(self, value):
        with pytest.raises(EngineModeError, match="incremental"):
            reference_mode({"incremental": value})


class TestBuildEngine:
    def test_default_is_an_engine_without_parts(self):
        engine = build_engine()
        assert type(engine) is SeraphEngine
        assert engine.ingress is None
        assert not hasattr(engine, "executor")
        assert engine.obs.enabled is False

    @pytest.mark.parametrize("stack", sorted(STACKS))
    def test_every_stack_is_one_engine_type(self, stack):
        engine = build_engine(EngineConfig(**STACKS[stack]))
        assert type(engine) is SeraphEngine
        assert (engine.ingress is not None) \
            is STACKS[stack].get("resilient", False)

    def test_resilient_gives_the_engine_an_ingress(self):
        engine = build_engine(EngineConfig(
            resilient=True, allowed_lateness=45,
            late_policy=FaultPolicy.SKIP,
        ))
        assert isinstance(engine.ingress, Ingress)
        assert engine.ingress.allowed_lateness == 45
        assert engine.ingress.late_policy is FaultPolicy.SKIP

    def test_overrides_are_field_level_shortcuts(self):
        engine = build_engine(**SLOW_TWIN)
        assert engine.reference is True

    def test_overrides_layer_on_top_of_a_config(self):
        config = EngineConfig(resilient=True)
        engine = build_engine(config, allowed_lateness=10)
        assert engine.ingress.allowed_lateness == 10
        assert config.allowed_lateness == 0  # the config is untouched

    def test_core_knobs_reach_the_engine(self):
        engine = build_engine(EngineConfig(
            policy=ActiveSubstreamPolicy.EARLIEST_CONTAINING, **SLOW_TWIN,
        ))
        assert engine.policy is ActiveSubstreamPolicy.EARLIEST_CONTAINING
        assert engine.reference is True

    def test_every_part_shares_one_observability_bundle(self):
        engine = build_engine(EngineConfig(
            resilient=True, observability=True,
        ))
        assert engine.obs.enabled is True
        assert engine.ingress.obs is engine.obs
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
    def test_an_ingress_is_passed_to_the_engine(self):
        engine = SeraphEngine(reference=True, ingress=Ingress())
        assert engine.reference is True
        assert engine.status()["resilience"]["allowed_lateness"] == 0
