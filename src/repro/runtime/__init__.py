"""Fault-tolerant streaming runtime: the parts a Seraph engine can own.

The paper defers the engine implementation (Section 6) and says nothing
about failure; the seed engine is fail-stop.  This package adds the
production concerns a deployed Kafka → ingestion → continuous-engine
pipeline (Section 2/5.2) needs, without changing the engine's
denotational-semantics contract:

* :class:`FaultPolicy` — FAIL_FAST / SKIP / DEAD_LETTER handling;
* :class:`DeadLetterQueue` — replayable quarantine of refused inputs;
* :class:`ReorderBuffer` — bounded out-of-order tolerance (watermark +
  allowed lateness);
* :class:`ResilientSink` — retries, exponential backoff with seeded
  jitter, circuit breaker, fallback sink;
* :class:`Ingress` — the part that composes them in front of an
  engine's stream log (``EngineConfig(resilient=True)``), with its state
  in the engine's JSON checkpoint;
* :mod:`repro.runtime.faults` — the deterministic chaos harness
  (:class:`ChaosConfig` drives both fault axes from one seed).
"""

from repro.runtime.checkpoint import (
    engine_from_dict,
    engine_from_json,
    engine_to_dict,
    load_checkpoint,
    save_checkpoint,
)
from repro.runtime.deadletter import DeadLetterEntry, DeadLetterQueue
from repro.runtime.ingress import Ingress, decode_item
from repro.runtime.faults import (
    ChaosConfig,
    FailureSchedule,
    FlakySink,
    FlakySource,
    InjectedSinkFailure,
)
from repro.runtime.policies import FaultPolicy
from repro.runtime.reorder import ReorderBuffer
from repro.runtime.resilient_sink import (
    CircuitBreaker,
    ResilientSink,
    RetryPolicy,
)

__all__ = [
    "ChaosConfig",
    "CircuitBreaker",
    "DeadLetterEntry",
    "DeadLetterQueue",
    "FailureSchedule",
    "FaultPolicy",
    "FlakySink",
    "FlakySource",
    "Ingress",
    "InjectedSinkFailure",
    "ReorderBuffer",
    "ResilientSink",
    "RetryPolicy",
    "decode_item",
    "engine_from_dict",
    "engine_from_json",
    "engine_to_dict",
    "load_checkpoint",
    "save_checkpoint",
]
