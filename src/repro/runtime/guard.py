"""Guarded MERGE-ingestion: fault policies for the Kafka-style pipeline.

:class:`GuardedIngestionPipeline` wraps the Listing-4 style
:class:`~repro.usecases.ingestion.IngestionPipeline`, validating raw
queue messages *before* they are accepted.  Validation failures —
:class:`~repro.errors.IngestionError` and its friends, i.e. exactly the
library-detected bad-input errors, never programming errors — are
handled per :class:`~repro.runtime.policies.FaultPolicy`: re-raised,
silently skipped, or quarantined in the dead-letter queue.

``feed_raw`` additionally accepts the wire form of a message (a plain
dict or its JSON string), so a whole malformed payload — wrong types,
missing keys, unknown kinds — is quarantined instead of crashing the
consumer.
"""

from __future__ import annotations

import json
from typing import Any, List, Optional

from repro.errors import IngestionError, PoisonMessageError, StreamError
from repro.graph.temporal import TimeInstant
from repro.obs.registry import MetricsRegistry
from repro.runtime.deadletter import DeadLetterQueue
from repro.runtime.policies import FaultPolicy
from repro.stream.stream import StreamElement
from repro.usecases.ingestion import (
    IngestionPipeline,
    RentalMessage,
    validate_message,
)

#: The exact fields of a raw queue message on the wire.
_MESSAGE_FIELDS = ("kind", "vehicle", "station", "user", "time",
                   "duration", "ebike")


def message_from_payload(payload: Any) -> RentalMessage:
    """Decode a wire payload (dict or JSON string) into a validated
    :class:`RentalMessage`; raises :class:`PoisonMessageError` when the
    payload shape is wrong and :class:`IngestionError` when the decoded
    message violates the ingestion contract."""
    if isinstance(payload, (str, bytes)):
        try:
            payload = json.loads(payload)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise PoisonMessageError(
                f"message payload is not valid JSON: {exc}"
            ) from exc
    if not isinstance(payload, dict):
        raise PoisonMessageError(
            f"message payload of type {type(payload).__name__} "
            "is not an object"
        )
    unknown = set(payload) - set(_MESSAGE_FIELDS)
    if unknown:
        raise PoisonMessageError(
            f"message payload has unknown fields {sorted(unknown)}"
        )
    try:
        message = RentalMessage(
            kind=payload["kind"],
            vehicle=payload["vehicle"],
            station=payload["station"],
            user=payload["user"],
            time=payload["time"],
            duration=payload.get("duration"),
            ebike=bool(payload.get("ebike", False)),
        )
    except KeyError as exc:
        raise PoisonMessageError(f"message payload misses key {exc}") from exc
    validate_message(message)
    return message


class GuardedIngestionPipeline:
    """An :class:`IngestionPipeline` that survives malformed messages."""

    def __init__(
        self,
        pipeline: IngestionPipeline,
        policy: FaultPolicy = FaultPolicy.DEAD_LETTER,
        dead_letters: Optional[DeadLetterQueue] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.pipeline = pipeline
        self.policy = policy
        #: counts ``resilience.{ingested,poison_rejected,poison_skipped}``
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.dead_letters = dead_letters if dead_letters is not None \
            else DeadLetterQueue(registry=self.registry)

    @property
    def store(self):
        return self.pipeline.store

    def feed(self, message: RentalMessage) -> bool:
        """Validate and accept one message; returns False when the
        message was refused (and skipped or quarantined per policy)."""
        try:
            validate_message(message)
            self.pipeline.feed(message)
        except StreamError as exc:  # IngestionError is a StreamError
            self._refuse(message, exc)
            return False
        self.registry.inc("resilience.ingested")
        return True

    def feed_raw(self, payload: Any) -> bool:
        """Decode a wire payload, then feed it; malformed payloads are
        refused per the policy instead of raising ``KeyError``."""
        try:
            message = message_from_payload(payload)
            self.pipeline.feed(message)
        except StreamError as exc:
            self._refuse(payload, exc)
            return False
        self.registry.inc("resilience.ingested")
        return True

    def seal_until(self, until: TimeInstant) -> List[StreamElement]:
        return self.pipeline.seal_until(until)

    def _refuse(self, payload: Any, error: StreamError) -> None:
        self.registry.inc("resilience.poison_rejected")
        if self.policy is FaultPolicy.FAIL_FAST:
            raise error
        if self.policy is FaultPolicy.SKIP:
            self.registry.inc("resilience.poison_skipped")
            return
        instant = None
        if isinstance(payload, RentalMessage) and isinstance(
            payload.time, int
        ):
            instant = payload.time
        self.dead_letters.append(
            payload, reason=str(error), error=error, instant=instant
        )
