"""The long-running asyncio HTTP/1.1 service fronting ``build_engine``.

A deliberately dependency-free server (``asyncio.start_server`` + a
hand-rolled HTTP/1.1 request loop): register Seraph queries per tenant,
push property-graph stream events in (single JSON or NDJSON batches),
and stream emissions out over SSE with heartbeats, resumable
``Last-Event-ID`` cursors, and a slow-consumer circuit breaker.

Endpoint map (full contract in docs/SERVICE.md)::

    GET    /healthz
    GET    /status
    POST   /tenants/{t}/queries                  register (201)
    GET    /tenants/{t}/queries                  list
    DELETE /tenants/{t}/queries/{q}              deregister
    GET    /tenants/{t}/queries/{q}/emissions    SSE stream
    GET    /tenants/{t}/streams                  list derived streams
    GET    /tenants/{t}/streams/{s}/emissions    SSE on a derived stream
    POST   /tenants/{t}/streams/{s}/events       push events (202)
    POST   /tenants/{t}/advance                  fire due evaluations
    GET    /tenants/{t}/status                   unified status + service
    GET    /tenants/{t}/metrics                  Prometheus text exposition
    GET    /tenants/{t}/checkpoint               snapshot to JSON
    POST   /tenants/{t}/restore                  rebuild from a snapshot

Every ``/tenants/{t}/...`` request crosses the bearer-token auth
boundary; typed :class:`~repro.errors.ServiceError` subclasses map 1:1
onto HTTP status codes (401/403/404/409/429/503).
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlsplit

from repro.api import MODE_FIELDS, EngineConfig
from repro.errors import (
    CheckpointError,
    ConsumerLagError,
    DataflowError,
    EngineError,
    EngineModeError,
    OutOfOrderEventError,
    PoisonMessageError,
    QueryRegistryError,
    ReproError,
    SeraphSemanticError,
    CypherError,
    ServiceError,
)
from repro.runtime.ingress import decode_item
from repro.service.client import parse_head
from repro.service.sse import HEARTBEAT_FRAME, format_event
from repro.service.tenants import (
    TenantManager,
    TenantQuotas,
    TenantSpec,
    TenantState,
)
from repro.stream.window import ActiveSubstreamPolicy

_REASONS = {
    200: "OK", 201: "Created", 202: "Accepted", 204: "No Content",
    400: "Bad Request", 401: "Unauthorized", 403: "Forbidden",
    404: "Not Found", 405: "Method Not Allowed", 409: "Conflict",
    413: "Payload Too Large", 429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}

SERVICE_SCHEMA = {"name": "repro.service", "version": 1}


#: The JSON-settable :class:`EngineConfig` fields and the JSON types each
#: takes (``None`` = the field also accepts ``null``).  The six mode
#: fields are settable too; :func:`repro.api.reference_mode` is their one
#: reader.  Everything else on the dataclass (graphs, callables, policy
#: objects) has no JSON form.
_ENGINE_JSON_FIELDS: Dict[str, tuple] = {
    "resilient": (bool,),
    "allowed_lateness": (int,),
    "dead_letter_capacity": (int, None),
    "observability": (bool,),
    "span_limit": (int,),
    "reservoir": (int,),
}
#: Fields an older configuration may still carry: the process pool's.
_REMOVED_JSON_FIELDS = (
    "parallel_workers", "offload_threshold", "max_worker_restarts",
    "task_timeout",
)


def engine_config_from_dict(data: Dict[str, Any]) -> EngineConfig:
    """An :class:`EngineConfig` from a JSON configuration fragment.

    Accepts ``policy`` by name, the six mode fields (checked by
    :func:`repro.api.reference_mode`) plus the JSON-scalar config fields,
    each with its field's type; a field of the removed process pool raises
    :class:`EngineModeError` (HTTP 400), anything else
    :class:`EngineError`.
    """
    if not isinstance(data, dict):
        raise EngineError(
            f"engine config must be a JSON object, got {data!r}"
        )
    overrides = dict(data)
    policy = overrides.pop("policy", None)
    removed = sorted(set(overrides) & set(_REMOVED_JSON_FIELDS))
    if removed:
        raise EngineModeError(
            f"engine config fields {removed} were removed with the process "
            "pool: every evaluation runs in the engine's own process"
        )
    unknown = set(overrides) - set(_ENGINE_JSON_FIELDS) - set(MODE_FIELDS)
    if unknown:
        raise EngineError(
            f"engine config fields not settable from JSON: {sorted(unknown)}"
        )
    for name, value in overrides.items():
        if name in MODE_FIELDS:
            continue
        # bool is an int subclass, so match the exact JSON type.
        kind = None if value is None else type(value)
        if kind not in _ENGINE_JSON_FIELDS[name]:
            raise EngineError(
                f"engine config field {name!r} does not take {value!r}"
            )
    if policy is not None:
        try:
            overrides["policy"] = ActiveSubstreamPolicy[str(policy).upper()]
        except KeyError:
            raise EngineError(f"unknown active-substream policy {policy!r}")
    return EngineConfig(**overrides)


def tenant_spec_from_dict(name: str, data: Dict[str, Any]) -> TenantSpec:
    """One tenant's configuration-file entry -> :class:`TenantSpec`."""
    return TenantSpec(
        name=name,
        token=data.get("token"),
        quotas=TenantQuotas.from_dict(data.get("quotas", {})),
        engine=(
            engine_config_from_dict(data["engine"])
            if data.get("engine") is not None else None
        ),
    )


@dataclass
class ServiceConfig:
    """Everything one service process needs, declaratively."""

    host: str = "127.0.0.1"
    port: int = 8080
    tenants: Dict[str, TenantSpec] = field(default_factory=dict)
    allow_dynamic_tenants: bool = False
    default_quotas: TenantQuotas = field(default_factory=TenantQuotas)
    default_engine: Optional[EngineConfig] = None
    #: Idle seconds between SSE comment frames keeping proxies awake.
    heartbeat_seconds: float = 15.0
    #: Per-write backpressure bound on SSE consumers: a consumer that
    #: cannot drain one frame within this window is circuit-broken.
    drain_timeout: float = 5.0
    max_body_bytes: int = 8 * 1024 * 1024
    request_timeout: float = 30.0
    clock: Callable[[], float] = time.monotonic

    @classmethod
    def from_dict(cls, data: Dict[str, Any], **overrides) -> "ServiceConfig":
        values: Dict[str, Any] = {}
        for key in ("host", "port", "allow_dynamic_tenants",
                    "heartbeat_seconds", "drain_timeout",
                    "max_body_bytes", "request_timeout"):
            if key in data:
                values[key] = data[key]
        values["tenants"] = {
            name: tenant_spec_from_dict(name, entry)
            for name, entry in data.get("tenants", {}).items()
        }
        if "default_quotas" in data:
            values["default_quotas"] = TenantQuotas.from_dict(
                data["default_quotas"]
            )
        if data.get("default_engine") is not None:
            values["default_engine"] = engine_config_from_dict(
                data["default_engine"]
            )
        values.update(overrides)
        return cls(**values)

    @classmethod
    def from_file(cls, path: str, **overrides) -> "ServiceConfig":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle), **overrides)


class _HttpRequest:
    """One parsed request (method, path parts, headers, body, query)."""

    __slots__ = ("method", "path", "parts", "headers", "body", "params",
                 "keep_alive")

    def __init__(self, method: str, target: str, version: str,
                 headers: Dict[str, str], body: bytes):
        self.method = method
        split = urlsplit(target)
        self.path = split.path
        self.parts = [unquote(part)
                      for part in split.path.split("/") if part]
        self.headers = headers
        self.body = body
        self.params = parse_qs(split.query)
        # RFC 9112 §9.3: HTTP/1.1 persists unless either side says close.
        self.keep_alive = version == "HTTP/1.1" and "close" not in (
            headers.get("connection", "").lower().replace(" ", "").split(",")
        )

    def param(self, name: str) -> Optional[str]:
        values = self.params.get(name)
        return values[0] if values else None

    def json(self) -> Any:
        try:
            return json.loads(self.body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise PoisonMessageError(f"request body is not valid JSON: {exc}")


def _error_status(exc: Exception) -> int:
    if isinstance(exc, (ServiceError, DataflowError, EngineModeError)):
        # DataflowError: 409 cycles, 404 unknown streams, else 400.
        return exc.status
    if isinstance(exc, (CypherError, SeraphSemanticError,
                        PoisonMessageError, CheckpointError)):
        return 400
    if isinstance(exc, OutOfOrderEventError):
        return 409
    if isinstance(exc, QueryRegistryError):
        return 409
    return 500


def _error_body(exc: Exception) -> Dict[str, str]:
    return {"error": str(exc), "type": type(exc).__name__}


class SeraphService:
    """The service: one :class:`TenantManager` behind an asyncio server."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.manager = TenantManager(
            specs=self.config.tenants,
            allow_dynamic_tenants=self.config.allow_dynamic_tenants,
            default_quotas=self.config.default_quotas,
            default_engine=self.config.default_engine,
            clock=self.config.clock,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self._running = False
        self._started_at: Optional[float] = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` ephemeral binds)."""
        if self._server is None:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        if self._server is not None:
            raise ServiceError("service is already started")
        self._running = True
        self._started_at = time.monotonic()
        self._server = await asyncio.start_server(
            self._client_connected, self.config.host, self.config.port
        )

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, end every connection (idle,
        mid-request or SSE) *before* ``wait_closed``, which waits for them
        since Python 3.12, close every tenant's emission logs."""
        self._running = False
        server, self._server = self._server, None
        if server is not None:
            server.close()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if server is not None:
            await server.wait_closed()
        self.manager.close()

    async def serve_forever(self) -> None:
        """Serve until this task is cancelled (Ctrl-C under
        ``asyncio.run``), then :meth:`stop`."""
        await self.start()
        try:
            # Not Server.serve_forever: on cancellation it awaits
            # wait_closed before stop() could end the connections.
            await asyncio.get_running_loop().create_future()
        finally:
            await self.stop()

    # -- connection handling -----------------------------------------------

    async def _client_connected(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            if self._running:  # else accepted just before stop()
                await self._handle_connection(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.TimeoutError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """The per-connection request loop (RFC 9112 §9.3): answer in
        order until a request asks to close, a framing error is answered,
        an SSE stream takes the connection, or no request head arrives
        within ``request_timeout`` (closed without a response)."""
        keep_alive = True
        while keep_alive:
            request = await self._read_request(reader, writer)
            if request is None:
                break
            keep_alive = request.keep_alive
            try:
                response = await self._dispatch(request, writer)
            except ReproError as exc:
                response = _error_status(exc), _error_body(exc)
            if response is None:
                break  # an SSE stream owned the connection to its end
            self._respond(writer, *response, close=not keep_alive)
            await writer.drain()

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[_HttpRequest]:
        """The next request; ``None`` once a framing error is answered."""
        timeout = self.config.request_timeout
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout
            )
        except asyncio.LimitOverrunError:
            return self._reject(writer, 431, "request head too large")
        request_line, headers = parse_head(head)
        try:
            method, target, version = request_line.split()
        except ValueError:
            return self._reject(writer, 400, "malformed request line")
        if "chunked" in headers.get("transfer-encoding", "").lower():
            return self._reject(
                writer, 400, "chunked transfer encoding is not supported"
            )
        raw_length = headers.get("content-length", "0")
        if not (raw_length.isascii() and raw_length.isdigit()):
            return self._reject(
                writer, 400, f"invalid Content-Length {raw_length!r}"
            )
        length = int(raw_length)
        if length > self.config.max_body_bytes:
            # The body stays unread, so the connection cannot be reused.
            return self._reject(
                writer, 413, f"body of {length} bytes exceeds the "
                f"{self.config.max_body_bytes}-byte limit"
            )
        body = await asyncio.wait_for(
            reader.readexactly(length), timeout
        ) if length else b""
        return _HttpRequest(method.upper(), target, version, headers, body)

    # -- responses ---------------------------------------------------------

    def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        content_type: str = "application/json",
        close: bool = False,
    ) -> None:
        body = (
            payload if isinstance(payload, bytes)
            else json.dumps(payload, sort_keys=True).encode("utf-8")
        )
        connection = "Connection: close\r\n" if close else ""
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{connection}\r\n"
        )
        writer.write(head.encode("latin-1") + body)

    def _reject(
        self, writer: asyncio.StreamWriter, status: int, message: str
    ) -> None:
        """Answer a framing error; the connection closes after it."""
        self._respond(writer, status, {"error": message}, close=True)

    # -- routing -----------------------------------------------------------

    async def _dispatch(
        self, request: _HttpRequest, writer: asyncio.StreamWriter
    ) -> Optional[tuple]:
        """``(status, payload[, content_type])`` to answer with, or
        ``None`` when an SSE handler wrote to the connection itself."""
        parts = request.parts
        method = request.method
        if parts == ["healthz"] and method == "GET":
            return 200, {"ok": True}
        if parts == ["status"] and method == "GET":
            return 200, self._service_status()
        if len(parts) >= 2 and parts[0] == "tenants":
            tenant = self.manager.authorize(
                parts[1], request.headers.get("authorization")
            )
            rest = parts[2:]
            handler = self._tenant_route(method, rest)
            if handler is not None:
                return await handler(request, writer, tenant, rest)
        return 404, {"error": f"no route for {method} {request.path}"}

    def _tenant_route(self, method: str, rest: List[str]):
        if rest == ["queries"] and method == "POST":
            return self._handle_register
        if rest == ["queries"] and method == "GET":
            return self._handle_list_queries
        if len(rest) == 2 and rest[0] == "queries" and method == "DELETE":
            return self._handle_deregister
        if (len(rest) == 3 and rest[0] == "queries"
                and rest[2] == "emissions" and method == "GET"):
            return self._handle_emissions
        if rest == ["streams"] and method == "GET":
            return self._handle_list_streams
        if (len(rest) == 3 and rest[0] == "streams"
                and rest[2] == "emissions" and method == "GET"):
            return self._handle_stream_emissions
        if (len(rest) == 3 and rest[0] == "streams"
                and rest[2] == "events" and method == "POST"):
            return self._handle_events
        if rest == ["advance"] and method == "POST":
            return self._handle_advance
        if rest == ["status"] and method == "GET":
            return self._handle_tenant_status
        if rest == ["metrics"] and method == "GET":
            return self._handle_tenant_metrics
        if rest == ["checkpoint"] and method == "GET":
            return self._handle_checkpoint
        if rest == ["restore"] and method == "POST":
            return self._handle_restore
        return None

    # -- handlers (each returns what ``_dispatch`` returns) -----------------

    async def _handle_register(
        self, request: _HttpRequest, writer, tenant: TenantState, rest
    ) -> tuple:
        content_type = request.headers.get("content-type", "")
        if "json" in content_type:
            payload = request.json()
            if not isinstance(payload, dict) or "query" not in payload:
                raise PoisonMessageError(
                    'JSON register payloads need a "query" field'
                )
            text = payload["query"]
            skip_empty = bool(payload.get("skip_empty", False))
        else:
            text = request.body.decode("utf-8")
            skip_empty = False
        handle = tenant.register_query(text, skip_empty=skip_empty)
        return 201, {
            "query": handle.name,
            "tenant": tenant.name,
            "warnings": [str(warning) for warning in handle.warnings],
            "delta_reason": handle.delta_reason,
        }

    async def _handle_list_queries(
        self, request, writer, tenant: TenantState, rest
    ) -> tuple:
        return 200, {
            "tenant": tenant.name,
            "queries": tenant.service_status()["queries"],
        }

    async def _handle_list_streams(
        self, request, writer, tenant: TenantState, rest
    ) -> tuple:
        return 200, {
            "tenant": tenant.name,
            "streams": tenant.derived_streams(),
        }

    async def _handle_deregister(
        self, request, writer, tenant: TenantState, rest
    ) -> tuple:
        name = rest[1]
        try:
            tenant.deregister_query(name)
        except QueryRegistryError as exc:
            return 404, _error_body(exc)
        return 200, {"deregistered": name}

    async def _handle_events(
        self, request: _HttpRequest, writer, tenant: TenantState, rest
    ) -> tuple:
        stream = rest[1]
        raw = request.body.decode("utf-8")
        try:
            document = json.loads(raw)
            payloads: List[Any] = (
                document if isinstance(document, list) else [document]
            )
        except json.JSONDecodeError:
            # NDJSON batch: one event object per line.
            payloads = [line for line in raw.splitlines() if line.strip()]
        if not payloads:
            raise PoisonMessageError("no events in request body")
        tenant.admit(len(payloads))
        # Decode everything first: a malformed batch is rejected whole
        # (400) before any element reaches the engine.
        elements = [decode_item(payload) for payload in payloads]
        ingested = 0
        try:
            for element in elements:
                tenant.push(element, stream)
                ingested += 1
        except ReproError as exc:
            return _error_status(exc), {**_error_body(exc),
                                        "ingested": ingested}
        return 202, {
            "ingested": ingested,
            "stream": stream,
            "watermark": tenant.engine.watermark,
        }

    async def _handle_advance(
        self, request: _HttpRequest, writer, tenant: TenantState, rest
    ) -> tuple:
        payload = request.json()
        if not isinstance(payload, dict) or not isinstance(
                payload.get("until"), int):
            raise PoisonMessageError(
                'advance payloads need an integer "until" field'
            )
        tenant.advance(payload["until"])
        return 200, {"advanced_to": payload["until"]}

    async def _handle_tenant_status(
        self, request, writer, tenant: TenantState, rest
    ) -> tuple:
        return 200, tenant.status()

    async def _handle_tenant_metrics(
        self, request, writer, tenant: TenantState, rest
    ) -> tuple:
        # Imported here: ``python -m repro.obs.schema`` must not find
        # its module already loaded through ``import repro``.
        from repro.obs.export import to_prometheus

        return (
            200, to_prometheus(tenant.obs.registry).encode("utf-8"),
            "text/plain; version=0.0.4; charset=utf-8",
        )

    async def _handle_checkpoint(
        self, request, writer, tenant: TenantState, rest
    ) -> tuple:
        return 200, tenant.checkpoint()

    async def _handle_restore(
        self, request: _HttpRequest, writer, tenant: TenantState, rest
    ) -> tuple:
        document = request.json()
        if not isinstance(document, dict):
            raise PoisonMessageError("restore payload is not an object")
        tenant.restore(document)
        return 200, {
            "restored": tenant.name,
            "queries": tenant.query_names,
        }

    # -- SSE ---------------------------------------------------------------

    async def _handle_emissions(
        self, request: _HttpRequest, writer: asyncio.StreamWriter,
        tenant: TenantState, rest: List[str],
    ) -> Optional[tuple]:
        query_name = rest[1]
        try:
            log = tenant.log_for(query_name)
        except ReproError as exc:
            return 404, _error_body(exc)
        await self._serve_sse(request, writer, tenant, log)

    async def _handle_stream_emissions(
        self, request: _HttpRequest, writer: asyncio.StreamWriter,
        tenant: TenantState, rest: List[str],
    ) -> None:
        # Raises UnknownStreamError (404) for non-derived streams.
        log = tenant.stream_log(rest[1])
        await self._serve_sse(request, writer, tenant, log)

    async def _serve_sse(
        self, request: _HttpRequest, writer: asyncio.StreamWriter,
        tenant: TenantState, log,
    ) -> None:
        """Shared SSE body: cursor parse, headers, then the stream loop."""
        last_id = -1
        raw_cursor = request.headers.get(
            "last-event-id", request.param("last_event_id")
        )
        if raw_cursor is not None:
            try:
                last_id = int(raw_cursor)
            except ValueError:
                raise PoisonMessageError(
                    f"Last-Event-ID {raw_cursor!r} is not an integer"
                )
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n"
            b"\r\n"
        )
        await writer.drain()
        await self._stream_emissions(writer, tenant, log, last_id)

    async def _stream_emissions(
        self, writer: asyncio.StreamWriter, tenant: TenantState,
        log, last_id: int,
    ) -> None:
        """The consumer loop: backlog, then wait/heartbeat, forever.

        Backpressure contract: the emission log is the *only* buffer.  A
        consumer that cannot drain a frame within ``drain_timeout``, or
        whose cursor falls off the bounded log, is circuit-broken
        (disconnected + counted as shed) — per-consumer buffers never
        grow unbounded, and one slow consumer cannot perturb anyone
        else's stream.
        """
        heartbeat = self.config.heartbeat_seconds
        try:
            while self._running:
                try:
                    entries = log.after(last_id)
                except ConsumerLagError as exc:
                    writer.write(format_event(
                        json.dumps({"error": str(exc)}), event="shed",
                    ))
                    await self._drain_or_shed(writer)
                    self._shed(tenant)
                    return
                for entry_id, data in entries:
                    writer.write(format_event(
                        data, event_id=entry_id, event="emission",
                    ))
                    if not await self._drain_or_shed(writer):
                        self._shed(tenant)
                        return
                    last_id = entry_id
                if log.next_id - 1 > last_id:
                    continue  # appended while we were draining
                try:
                    await asyncio.wait_for(log.wait(), heartbeat)
                except asyncio.TimeoutError:
                    writer.write(HEARTBEAT_FRAME)
                    if not await self._drain_or_shed(writer):
                        self._shed(tenant)
                        return
        except (ConnectionError, OSError):
            pass

    async def _drain_or_shed(self, writer: asyncio.StreamWriter) -> bool:
        """Await the transport drain, bounded; False = shed this consumer."""
        try:
            await asyncio.wait_for(
                writer.drain(), self.config.drain_timeout
            )
        except (asyncio.TimeoutError, ConnectionError, OSError):
            return False
        return True

    def _shed(self, tenant: TenantState) -> None:
        tenant.count("shed_consumers")

    # -- status ------------------------------------------------------------

    def _service_status(self) -> Dict[str, Any]:
        return {
            "schema": dict(SERVICE_SCHEMA),
            "uptime_seconds": (
                time.monotonic() - self._started_at
                if self._started_at is not None else None
            ),
            "connections": len(self._connections),
            "tenants": self.manager.status(),
        }


async def run_service(config: ServiceConfig) -> Tuple[SeraphService, int]:
    """Start a service and return it with its bound port (test helper)."""
    service = SeraphService(config)
    await service.start()
    return service, service.port
