"""Exception hierarchy for the Seraph reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GraphError(ReproError):
    """Base class for property-graph model errors."""


class GraphConsistencyError(GraphError):
    """A property graph violates Definition 3.1 (dangling endpoints, ...)."""


class GraphUnionError(GraphError):
    """Two graphs cannot be united under UNA (Definition 5.4).

    Raised when the same identifier carries conflicting labels, types,
    endpoints, or property values in the two operands.
    """


class TableError(ReproError):
    """Base class for table (Definition 3.2) errors."""


class SchemaMismatchError(TableError):
    """Records with different field sets were mixed into one table."""


class TemporalError(ReproError):
    """Invalid time instants, intervals, or ISO-8601 strings."""


class StreamError(ReproError):
    """Base class for property-graph-stream errors."""


class OutOfOrderEventError(StreamError):
    """A stream element arrived with a timestamp before the stream head."""


class IngestionError(StreamError):
    """A raw queue message is malformed or violates the ingestion contract.

    Raised (instead of raw ``KeyError``/``TypeError`` escaping from the
    updating-query evaluator) so fault policies can catch exactly
    library-detected bad input, never programming errors.
    """


class LateEventError(StreamError):
    """An element arrived later than the configured allowed lateness."""


class PoisonMessageError(IngestionError):
    """A stream payload could not be decoded into a valid element."""


class WindowError(ReproError):
    """Invalid window configuration (Definition 5.9)."""


class TimeVaryingTableError(ReproError):
    """A time-varying table constraint (Definition 5.7) was violated."""


class CypherError(ReproError):
    """Base class for Cypher language errors."""


class CypherSyntaxError(CypherError):
    """Lexing or parsing failed.

    Carries the 1-based ``line`` and ``column`` of the offending position.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class CypherTypeError(CypherError):
    """An expression was applied to a value of the wrong type."""


class CypherEvaluationError(CypherError):
    """Runtime evaluation failure (unknown variable, bad aggregate, ...)."""


class SeraphError(ReproError):
    """Base class for Seraph language and engine errors."""


class SeraphSyntaxError(SeraphError, CypherSyntaxError):
    """Seraph-level parse failure (Figure 6 grammar)."""


class SeraphSemanticError(SeraphError):
    """A structurally valid Seraph query is semantically ill-formed."""


class QueryRegistryError(SeraphError):
    """Registering/deregistering a continuous query failed."""


class EngineError(SeraphError):
    """Continuous engine runtime failure."""


class EngineModeError(EngineError):
    """The configuration selects a behaviour the engine does not have:
    six mode fields naming neither production nor the reference twin
    (:func:`repro.api.reference_mode`), or a field of a removed part.  A
    configuration error, so the service answers it with HTTP 400."""

    status = 400


class DataflowError(SeraphError):
    """Base class for ``EMIT ... INTO`` dataflow errors.

    Like :class:`ServiceError`, every dataflow failure carries an HTTP
    ``status`` so the service boundary can translate typed errors into
    responses without string matching.
    """

    status = 400


class DataflowCycleError(DataflowError):
    """Registering a query would close a cycle in the dataflow DAG.

    The message names the cycle path through its derived streams
    (``a -[s1]-> b -[s2]-> a``); a self-loop — a query consuming the
    stream it emits into — is the length-1 case.  Maps to HTTP 409:
    the registration conflicts with the current query set.
    """

    status = 409


class UnknownStreamError(DataflowError):
    """A lookup named a derived stream no registered query emits into."""

    status = 404


class SinkDeliveryError(SeraphError):
    """A sink kept failing after all configured delivery attempts."""


class CircuitOpenError(SinkDeliveryError):
    """Delivery was refused because the sink's circuit breaker is open."""


class CheckpointError(ReproError):
    """An engine checkpoint document is malformed or incompatible."""


class ServiceError(ReproError):
    """Base class for continuous-query service errors.

    Every service-layer failure maps to one HTTP status code via
    ``status``, so the server can translate typed errors into responses
    without string matching.
    """

    status = 500


class AuthenticationError(ServiceError):
    """A request failed the tenant's bearer-token auth boundary."""

    status = 401


class UnknownTenantError(ServiceError):
    """The request names a tenant the service does not know."""

    status = 404


class QuotaExceededError(ServiceError):
    """A tenant exceeded one of its configured quotas.

    Covers registered-query count, events/sec admission (token bucket),
    and any other per-tenant limit; always surfaces as HTTP 429.
    """

    status = 429


class TenantQuarantinedError(ServiceError):
    """The tenant's engine kept failing and was fenced off.

    Per-tenant crash containment: after the configured number of
    consecutive engine failures the tenant answers 503 (other tenants
    are unaffected) until it is restored from a checkpoint or reset.
    """

    status = 503


class ConsumerLagError(ServiceError):
    """An SSE consumer fell behind the bounded emission buffer.

    Raised server-side to circuit-break the consumer: the connection is
    shed instead of letting the buffer grow without bound.
    """

    status = 409


class MetricsError(ReproError):
    """A metrics query was invalid (bad percentile, kind mismatch)."""


class ObservabilityError(ReproError):
    """An observability document failed schema validation."""
