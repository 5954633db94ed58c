"""The one front door: :class:`EngineConfig` + :func:`build_engine`.

One declarative config describes one
:class:`~repro.seraph.engine.SeraphEngine`: its execution modes, and
whether it owns an ingress (``resilient=True``:
:class:`~repro.runtime.ingress.Ingress`) — both sharing the engine's
:class:`~repro.obs.Observability` (tracer + metrics registry)::

    from repro import EngineConfig, build_engine

    engine = build_engine(EngineConfig(
        resilient=True,
        allowed_lateness=2,
        observability=True,
    ))
    engine.register(QUERY_TEXT)
    engine.run_stream(elements)
    print(engine.unified_status()["obs"]["metrics"])

The continuous-query service (:mod:`repro.service`) builds exclusively
on it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Mapping, Optional, Union

from repro.errors import EngineError, EngineModeError
from repro.graph.model import PropertyGraph
from repro.obs import Observability
from repro.runtime.faults import ChaosConfig
from repro.runtime.ingress import Ingress
from repro.runtime.policies import FaultPolicy
from repro.runtime.resilient_sink import RetryPolicy
from repro.seraph.engine import SeraphEngine
from repro.stream.window import ActiveSubstreamPolicy


#: The six mode names at their production values (what a checkpoint
#: writes for a production engine).  ``vectorized=None`` reads as False.
PRODUCTION_MODE = {
    "incremental": True, "reuse_unchanged_windows": True,
    "delta_eval": True, "physical_plans": True,
    "graph_backend": "reference", "vectorized": False,
}
#: The reference twin: every optimisation off.
REFERENCE_MODE = {
    "incremental": False, "reuse_unchanged_windows": False,
    "delta_eval": False, "physical_plans": False,
    "graph_backend": "reference", "vectorized": False,
}
MODE_FIELDS = tuple(PRODUCTION_MODE)
_REMOVED = {
    "graph_backend": "the columnar graph backend was removed: it was "
                     "slower end to end than the one graph left",
    "vectorized": "candidate pruning (vectorized=True) was removed: it "
                  "moved no workload's throughput",
}


def reference_mode(modes: Mapping[str, Any]) -> bool:
    """The one reader of the six mode names: ``False`` for production
    (every name absent or at its default), ``True`` for the reference
    twin (exactly :data:`REFERENCE_MODE`).  Other keys of ``modes`` are
    ignored.  Anything else is a partial ablation or a removed backend:
    :class:`~repro.errors.EngineModeError` naming the offending fields
    and the two allowed forms."""
    values = {name: modes.get(name, default)
              for name, default in PRODUCTION_MODE.items()}
    if values["vectorized"] is None:
        values["vectorized"] = False
    off = [
        [name for name, wanted in form.items()
         if type(values[name]) is not type(wanted) or values[name] != wanted]
        for form in (PRODUCTION_MODE, REFERENCE_MODE)
    ]
    if not off[0]:
        return False
    if not off[1]:
        return True
    named = min(off, key=len)
    why = [_REMOVED[name] for name in named if name in _REMOVED]
    raise EngineModeError(
        "engine mode fields "
        + ", ".join(f"{name}={values[name]!r}" for name in named)
        + " select neither production (every mode field at its default) "
        "nor the reference twin ("
        + ", ".join(f"{name}={value!r}"
                    for name, value in REFERENCE_MODE.items())
        + "); partial ablations are not supported"
        + "".join(f"; {reason}" for reason in why)
    )


@dataclass
class EngineConfig:
    """Declarative description of one engine stack.

    Core evaluation
    ---------------
    ``policy`` and ``static_graph`` go to the engine as they are.  The
    six mode fields ``incremental``, ``reuse_unchanged_windows``,
    ``delta_eval``, ``physical_plans``, ``graph_backend`` and
    ``vectorized`` name one of two behaviours (:func:`reference_mode`):
    every field at its default is **production**; exactly the values of
    :data:`REFERENCE_MODE` are the **reference** twin, the from-scratch
    test oracle; anything else raises
    :class:`~repro.errors.EngineModeError`.  Both emit the same bag at
    every instant.  These fields are the only way to select a mode:
    nothing ambient (environment variables, CLI flags) can.

    Every evaluation runs in the engine's own process.

    Chaos
    -----
    ``chaos`` takes a :class:`~repro.runtime.faults.ChaosConfig` and
    needs ``resilient=True`` (the ingress is what injects it): its
    source axis wraps ``run_stream`` input in a seeded
    :class:`~repro.runtime.faults.FlakySource` while its sink axis
    slips a seeded :class:`~repro.runtime.faults.FlakySink` between the
    resilient delivery layer and each user sink.  One seed reproduces
    the whole chaotic run.

    Resilience
    ----------
    ``resilient=True`` gives the engine an
    :class:`~repro.runtime.ingress.Ingress`; the lateness/policy/retry
    fields configure it and are ignored (validated untouched) otherwise.

    Observability
    -------------
    ``observability=True`` creates a fresh
    :class:`~repro.obs.Observability` bundle shared by the engine and
    its parts; an existing bundle is accepted as-is (e.g. one registry
    across several engines); ``False`` (default) turns tracing off — the
    engine still counts into a registry of its own.
    """

    # -- core -----------------------------------------------------------
    policy: ActiveSubstreamPolicy = ActiveSubstreamPolicy.TRAILING
    incremental: bool = True
    static_graph: Optional[PropertyGraph] = None
    reuse_unchanged_windows: bool = True
    delta_eval: bool = True
    physical_plans: bool = True
    graph_backend: str = "reference"
    vectorized: Optional[bool] = None
    # -- chaos ----------------------------------------------------------
    chaos: Optional[ChaosConfig] = None
    # -- resilience -----------------------------------------------------
    resilient: bool = False
    allowed_lateness: int = 0
    poison_policy: FaultPolicy = FaultPolicy.DEAD_LETTER
    late_policy: FaultPolicy = FaultPolicy.DEAD_LETTER
    sink_policy: FaultPolicy = FaultPolicy.DEAD_LETTER
    retry: Optional[RetryPolicy] = None
    dead_letter_capacity: Optional[int] = None
    # -- observability --------------------------------------------------
    observability: Union[bool, Observability] = False
    span_limit: int = 100_000
    reservoir: int = 512

    def __post_init__(self) -> None:
        if self.chaos is not None:
            if not isinstance(self.chaos, ChaosConfig):
                raise EngineError(
                    "chaos must be a ChaosConfig, got "
                    f"{type(self.chaos).__name__}"
                )
            if not self.resilient:
                raise EngineError(
                    "chaos needs resilient=True: the ingress is what "
                    "injects its source and sink faults"
                )
        reference_mode(vars(self))  # raises on any other combination
        if self.allowed_lateness < 0:
            raise EngineError("allowed_lateness must be >= 0")
        if self.span_limit < 0 or self.reservoir < 1:
            raise EngineError("span_limit must be >= 0, reservoir >= 1")

    def resolve_observability(self) -> Observability:
        """The bundle this config denotes (tracing off when disabled)."""
        if isinstance(self.observability, Observability):
            return self.observability
        if self.observability:
            return Observability.create(
                span_limit=self.span_limit, reservoir=self.reservoir
            )
        return Observability.disabled()

    def replace(self, **changes) -> "EngineConfig":
        """A copy with ``changes`` applied (config objects stay usable
        after build)."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        values.update(changes)
        return EngineConfig(**values)


def build_engine(
    config: Optional[EngineConfig] = None, **overrides
) -> SeraphEngine:
    """Build the engine ``config`` describes.

    ``overrides`` are field-level shortcuts —
    ``build_engine(resilient=True)`` equals
    ``build_engine(EngineConfig(resilient=True))``.  Always a
    :class:`~repro.seraph.engine.SeraphEngine`; ``resilient`` decides
    whether it owns an ingress (``engine.ingress``).
    """
    if config is None:
        config = EngineConfig(**overrides)
    elif overrides:
        config = config.replace(**overrides)
    ingress = None
    if config.resilient:
        ingress = Ingress(
            allowed_lateness=config.allowed_lateness,
            poison_policy=config.poison_policy,
            late_policy=config.late_policy,
            sink_policy=config.sink_policy,
            retry=config.retry,
            dead_letter_capacity=config.dead_letter_capacity,
            chaos=config.chaos,
        )
    return SeraphEngine(
        policy=config.policy,
        static_graph=config.static_graph,
        reference=reference_mode(vars(config)),
        obs=config.resolve_observability(),
        ingress=ingress,
    )
