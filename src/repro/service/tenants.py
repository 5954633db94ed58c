"""Per-tenant namespaces: engines, quotas, metrics, checkpoints.

One :class:`TenantState` owns one engine (built through the
:class:`~repro.api.EngineConfig` front door — the service has no other
construction path), its named input streams, one bounded
:class:`~repro.service.sse.EmissionLog` per registered query, a
token-bucket admission controller, and a small crash-containment fence:
engine failures are counted per tenant, and a tenant whose engine keeps
failing is quarantined (503) without touching its neighbours.  The
tenant's service counters live in its engine's metrics registry under
``service.tenant.<name>.*`` — one scrape (``GET /tenants/{t}/metrics``)
covers the tenant end to end.

:class:`TenantManager` is the service-wide registry: static tenants from
configuration, optional dynamic creation, and whole-service snapshot /
restore riding on the engine checkpoint format
(:mod:`repro.runtime.checkpoint`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.api import EngineConfig, build_engine
from repro.errors import (
    CheckpointError,
    QuotaExceededError,
    ReproError,
    TenantQuarantinedError,
    UnknownStreamError,
    UnknownTenantError,
)
from repro.runtime.checkpoint import engine_from_dict
from repro.seraph.ast import DEFAULT_STREAM
from repro.seraph.parser import parse_seraph
from repro.service.admission import TokenBucket
from repro.service.auth import Authenticator
from repro.service.sse import EmissionLog, ServiceSink
from repro.stream.stream import StreamElement

TENANT_CHECKPOINT_VERSION = 2

#: ``service.tenant.<t>.*`` counters, in ``service.metrics`` status order.
TENANT_COUNTERS = (
    "requests", "events", "throttled", "emissions", "shed_consumers",
    "auth_failures", "engine_errors", "checkpoints", "restores",
)


@dataclass(frozen=True)
class TenantQuotas:
    """Per-tenant resource limits (all enforced, all surfaced in status).

    ``max_events_per_sec <= 0`` disables admission throttling;
    ``burst`` defaults to one second's worth of tokens.
    """

    max_queries: int = 16
    max_events_per_sec: float = 0.0
    burst: Optional[float] = None
    max_buffered_emissions: int = 256
    max_engine_failures: int = 3

    def as_dict(self) -> Dict[str, Any]:
        return {
            "max_queries": self.max_queries,
            "max_events_per_sec": self.max_events_per_sec,
            "burst": self.burst,
            "max_buffered_emissions": self.max_buffered_emissions,
            "max_engine_failures": self.max_engine_failures,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TenantQuotas":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass(frozen=True)
class TenantSpec:
    """Declarative description of one tenant (configuration-file shape)."""

    name: str
    token: Optional[str] = None
    quotas: TenantQuotas = field(default_factory=TenantQuotas)
    engine: Optional[EngineConfig] = None


class TenantState:
    """One live tenant: engine + logs + quotas + containment."""

    def __init__(
        self,
        spec: TenantSpec,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.spec = spec
        self.name = spec.name
        self.quotas = spec.quotas
        self.bucket = TokenBucket(
            rate=spec.quotas.max_events_per_sec,
            burst=spec.quotas.burst,
            clock=clock,
        )
        self._clock = clock
        self.engine = build_engine(spec.engine or EngineConfig())
        self._declare_counters()
        self.logs: Dict[str, EmissionLog] = {}
        self.sinks: Dict[str, ServiceSink] = {}
        self.failures = 0  # consecutive unexpected engine failures
        self.quarantined = False

    # -- engine plumbing ---------------------------------------------------

    @property
    def obs(self):
        return self.engine.obs

    def _declare_counters(self) -> None:
        self.obs.registry.declare(
            f"service.tenant.{self.name}", TENANT_COUNTERS
        )

    def count(self, name: str, amount: int = 1) -> None:
        """Bump one of the tenant's :data:`TENANT_COUNTERS`."""
        self.obs.registry.inc(f"service.tenant.{self.name}.{name}", amount)

    def _check_fence(self) -> None:
        if self.quarantined:
            raise TenantQuarantinedError(
                f"tenant {self.name!r} is quarantined after "
                f"{self.failures} consecutive engine failures; restore it "
                "from a checkpoint to resume"
            )

    def _contained(self, operation: Callable[[], Any]) -> Any:
        """Run one engine operation inside the per-tenant crash fence.

        Library-level :class:`ReproError` (bad queries, out-of-order
        events, ...) passes through untouched — it is the caller's
        input problem, not engine damage.  Anything else counts toward
        the crash budget and quarantines the tenant when exhausted.
        """
        self._check_fence()
        try:
            result = operation()
        except ReproError:
            raise
        except Exception:
            self.failures += 1
            self.count("engine_errors")
            if self.failures >= self.quotas.max_engine_failures:
                self.quarantined = True
            raise
        self.failures = 0
        return result

    # -- queries -----------------------------------------------------------

    def register_query(self, text: str, skip_empty: bool = False):
        """Register one Seraph query; returns its engine-side handle."""
        if len(self.logs) >= self.quotas.max_queries:
            raise QuotaExceededError(
                f"tenant {self.name!r} is at its query quota "
                f"({self.quotas.max_queries})"
            )
        query = parse_seraph(text)
        log = EmissionLog(self.quotas.max_buffered_emissions)
        sink = ServiceSink(
            log, skip_empty=skip_empty, on_append=self._count_emission
        )
        handle = self._contained(
            lambda: self.engine.register(query, sink=sink)
        )
        self.logs[query.name] = log
        self.sinks[query.name] = sink
        self.count("queries")
        return handle

    def _count_emission(self) -> None:
        self.count("emissions")

    def deregister_query(self, name: str) -> None:
        self._contained(lambda: self.engine.deregister(name))
        self.sinks.pop(name, None)
        log = self.logs.pop(name, None)
        if log is not None:
            log.close()

    def log_for(self, name: str) -> EmissionLog:
        log = self.logs.get(name)
        if log is None:
            raise UnknownTenantError(
                f"tenant {self.name!r} has no registered query {name!r}"
            )
        return log

    @property
    def query_names(self):
        return list(self.logs)

    # -- derived streams ---------------------------------------------------

    def derived_streams(self) -> Dict[str, Any]:
        """The tenant's derived streams (``EMIT ... INTO`` targets).

        Keyed by stream name; each descriptor names the producing and
        consuming queries plus the stream's cursor (elements
        materialized so far) — the engine's dataflow status section
        (docs/DATAFLOW.md).
        """
        return self.engine.dataflow_status()["streams"]

    def stream_log(self, stream: str) -> EmissionLog:
        """The emission log feeding a derived stream.

        Derived-stream SSE rides on the producing query's log (its
        emissions *are* the stream, pre-materialization); with several
        producers the first-registered one is served.  Raises
        :class:`~repro.errors.UnknownStreamError` (404) when no
        registered query emits into ``stream``.
        """
        producers = self.engine.dataflow.producers_of(stream)
        if not producers:
            known = sorted(self.engine.dataflow.produced_streams())
            raise UnknownStreamError(
                f"tenant {self.name!r} has no derived stream {stream!r} "
                f"(derived streams: {known if known else 'none'})"
            )
        return self.log_for(producers[0])

    # -- ingestion ---------------------------------------------------------

    def admit(self, events: int) -> None:
        """Token-bucket admission for a batch of ``events`` events."""
        if not self.bucket.try_acquire(float(events)):
            self.count("throttled", events)
            raise QuotaExceededError(
                f"tenant {self.name!r} exceeded its event admission rate "
                f"({self.quotas.max_events_per_sec}/s)"
            )

    def push(self, element: StreamElement, stream: str = DEFAULT_STREAM) -> None:
        """Ingest one admitted element, firing due evaluations first.

        ``engine.push`` is what ``run_stream`` does per element:
        evaluations strictly before this arrival must not see it — that
        discipline is what makes service emissions byte-identical to an
        offline run on the same elements.
        """
        with self.obs.tracer.span(
            "service_push", tenant=self.name, stream=stream,
            instant=element.instant,
        ):
            self._contained(lambda: self.engine.push(element, stream))
        self.count("events")

    def advance(self, until: int) -> None:
        """Fire every due evaluation with ET instant <= ``until`` (after
        draining whatever the engine's ingress still buffers)."""
        self._contained(lambda: self.engine.flush(until))

    # -- status / checkpoint -----------------------------------------------

    def status(self) -> Dict[str, Any]:
        """The tenant's unified status document plus its service section."""
        document = self.engine.unified_status()
        document["service"] = self.service_status()
        return document

    def service_status(self) -> Dict[str, Any]:
        return {
            "tenant": self.name,
            "quarantined": self.quarantined,
            "quotas": self.quotas.as_dict(),
            "admission": self.bucket.as_dict(),
            "metrics": self.obs.registry.values(
                f"service.tenant.{self.name}", TENANT_COUNTERS
            ),
            "queries": {
                name: {
                    "buffered": len(log),
                    "next_event_id": log.next_id,
                    "evicted": log.evicted,
                }
                for name, log in self.logs.items()
            },
        }

    def checkpoint(self) -> Dict[str, Any]:
        """Snapshot this tenant's engine + emission offsets to JSON.

        The ``engine`` payload is the engine's own checkpoint document
        (:mod:`repro.runtime.checkpoint`).  Emission logs persist their
        *offsets* only (``next_event_id``), so Last-Event-ID cursors stay
        monotonic across a restore while buffered rows are rebuilt by
        replay.
        """
        self.count("checkpoints")
        return {
            "version": TENANT_CHECKPOINT_VERSION,
            "tenant": self.name,
            "engine": self.engine.checkpoint(),
            "queries": {
                name: {
                    "next_event_id": log.next_id,
                    "skip_empty": self.sinks[name].skip_empty,
                }
                for name, log in self.logs.items()
            },
        }

    def restore(self, document: Dict[str, Any]) -> None:
        """Rebuild the engine from a :meth:`checkpoint` document.

        Clears the quarantine fence and reattaches a fresh bounded log
        (seeded at the checkpointed event-id offset) to every restored
        query; the tenant's service counters carry over into the new
        engine's registry.
        """
        version = document.get("version")
        if version != TENANT_CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported tenant checkpoint version {version!r}"
            )
        offsets = document.get("queries", {})
        logs: Dict[str, EmissionLog] = {}
        sinks: Dict[str, ServiceSink] = {}
        for name, entry in offsets.items():
            logs[name] = EmissionLog(
                self.quotas.max_buffered_emissions,
                next_id=int(entry.get("next_event_id", 0)),
            )
            sinks[name] = ServiceSink(
                logs[name],
                skip_empty=bool(entry.get("skip_empty", False)),
                on_append=self._count_emission,
            )
        engine = engine_from_dict(document["engine"], sinks=sinks)
        for name in engine.query_names:
            if name not in sinks:
                raise CheckpointError(
                    f"tenant checkpoint has no offsets for query {name!r}"
                )
        carried = [
            (name, counter.value) for name, counter in
            self.obs.registry.under(f"service.tenant.{self.name}.")
        ]
        self.close()
        self.engine = engine
        self._declare_counters()
        self.logs = {name: logs[name] for name in engine.query_names}
        self.sinks = {name: sinks[name] for name in engine.query_names}
        self.failures = 0
        self.quarantined = False
        for name, value in carried:
            self.count(name, value)
        self.count("restores")

    def close(self) -> None:
        """Wake consumers: every emission log closes."""
        for log in self.logs.values():
            log.close()


class TenantManager:
    """Service-wide tenant registry + auth boundary + snapshots."""

    def __init__(
        self,
        specs: Optional[Dict[str, TenantSpec]] = None,
        allow_dynamic_tenants: bool = False,
        default_quotas: Optional[TenantQuotas] = None,
        default_engine: Optional[EngineConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.allow_dynamic_tenants = allow_dynamic_tenants
        self.default_quotas = default_quotas or TenantQuotas()
        self.default_engine = default_engine
        self._clock = clock
        self.authenticator = Authenticator()
        self.tenants: Dict[str, TenantState] = {}
        for spec in (specs or {}).values():
            self.add(spec)

    def add(self, spec: TenantSpec) -> TenantState:
        if spec.name in self.tenants:
            raise QuotaExceededError(
                f"tenant {spec.name!r} already exists"
            )
        state = TenantState(spec, clock=self._clock)
        self.tenants[spec.name] = state
        self.authenticator.set_token(spec.name, spec.token)
        return state

    def get(self, name: str) -> TenantState:
        state = self.tenants.get(name)
        if state is None:
            if not self.allow_dynamic_tenants:
                raise UnknownTenantError(f"unknown tenant {name!r}")
            state = self.add(TenantSpec(
                name=name,
                quotas=self.default_quotas,
                engine=self.default_engine,
            ))
        return state

    def authorize(self, name: str, authorization: Optional[str]) -> TenantState:
        """Resolve + authenticate one tenant-scoped request."""
        state = self.get(name)
        from repro.errors import AuthenticationError

        try:
            self.authenticator.check(name, authorization)
        except AuthenticationError:
            state.count("auth_failures")
            raise
        state.count("requests")
        return state

    def snapshot(self) -> Dict[str, Any]:
        """One JSON document checkpointing every tenant."""
        return {
            "version": TENANT_CHECKPOINT_VERSION,
            "tenants": {
                name: state.checkpoint()
                for name, state in self.tenants.items()
            },
        }

    def restore_snapshot(self, document: Dict[str, Any]) -> None:
        for name, tenant_doc in document.get("tenants", {}).items():
            state = self.get(name)
            state.restore(tenant_doc)

    def status(self) -> Dict[str, Any]:
        return {
            name: state.service_status()
            for name, state in self.tenants.items()
        }

    def close(self) -> None:
        for state in self.tenants.values():
            state.close()
