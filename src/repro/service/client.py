"""A minimal asyncio client for the service (tests + smoke checks).

Deliberately tiny and dependency-free: persistent HTTP/1.1 connections
(a stack of idle ones, never shared by two requests in flight), JSON
bodies in and out, and an SSE consumer that parses
``text/event-stream`` frames incrementally.  This is *not* a production
client — it exists so the integration tests and ``make serve-smoke``
can exercise the real wire protocol without pulling in an HTTP library.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, AsyncIterator, Dict, List, Optional, Tuple


def parse_head(head: bytes) -> Tuple[str, Dict[str, str]]:
    """An HTTP message head, through its blank line, as the start line
    and the headers keyed by lower-cased name (the server's parser too)."""
    start_line, *lines = head.decode("latin-1").lstrip("\r\n").split("\r\n")
    headers: Dict[str, str] = {}
    for line in lines:
        name, _, value = line.partition(":")
        if name:
            headers[name.strip().lower()] = value.strip()
    return start_line, headers


class ServiceResponse:
    """One parsed HTTP response (status + headers + decoded body)."""

    __slots__ = ("status", "headers", "body")

    def __init__(self, status: int, headers: Dict[str, str], body: bytes):
        self.status = status
        self.headers = headers
        self.body = body

    def json(self) -> Any:
        return json.loads(self.body.decode("utf-8"))


class SseEvent:
    """One parsed SSE frame (``None`` fields when the line was absent)."""

    __slots__ = ("event_id", "event", "data")

    def __init__(self, event_id: Optional[int], event: Optional[str],
                 data: str):
        self.event_id = event_id
        self.event = event
        self.data = data

    def json(self) -> Any:
        return json.loads(self.data)


class ServiceClient:
    """Issue requests against one running :class:`SeraphService`.

    A request takes an idle connection (or opens one) and gives it back
    once it has read the whole response, unless the response said
    ``Connection: close``.  :meth:`close` closes the idle connections.
    """

    def __init__(self, host: str, port: int, token: Optional[str] = None):
        self.host = host
        self.port = port
        self.token = token
        self._idle: List[tuple] = []  # (reader, writer), newest last

    def _headers(self, extra: Optional[Dict[str, str]]) -> Dict[str, str]:
        headers: Dict[str, str] = {}
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        if extra:
            headers.update(extra)
        return headers

    def _message(self, method: str, path: str, body: bytes,
                 headers: Dict[str, str]) -> bytes:
        lines = [f"{method} {path} HTTP/1.1",
                 f"Host: {self.host}:{self.port}",
                 f"Content-Length: {len(body)}"]
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body

    @staticmethod
    async def _read_head(
        reader: asyncio.StreamReader,
    ) -> Tuple[int, Dict[str, str]]:
        status_line, headers = parse_head(await reader.readuntil(b"\r\n\r\n"))
        return int(status_line.split()[1]), headers

    async def request(
        self,
        method: str,
        path: str,
        payload: Any = None,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> ServiceResponse:
        """One request/response round trip (JSON payload or raw body).
        One sent on a reused connection that ends before any byte of the
        response (closed while idle) is sent once more on a fresh one."""
        request_headers = self._headers(headers)
        if body is None:
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                request_headers.setdefault(
                    "Content-Type", "application/json"
                )
            else:
                body = b""
        message = self._message(method, path, body, request_headers)
        while self._idle:
            reader, writer = self._idle.pop()
            if reader.at_eof():
                writer.close()  # the server closed it while idle
                continue
            response = await self._exchange(reader, writer, message, True)
            if response is not None:
                return response
            break
        reader, writer = await asyncio.open_connection(self.host, self.port)
        return await self._exchange(reader, writer, message, False)

    async def _exchange(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
        message: bytes, reused: bool,
    ) -> Optional[ServiceResponse]:
        """Send ``message`` and read the whole response; ``None`` when a
        ``reused`` connection ended before any byte of the response."""
        status = None
        try:
            writer.write(message)
            await writer.drain()
            status, headers = await self._read_head(reader)
            length = int(headers.get("content-length", "0") or 0)
            data = await reader.readexactly(length) if length else b""
        except BaseException as exc:
            writer.close()
            unanswered = isinstance(exc, ConnectionError) or isinstance(
                exc, asyncio.IncompleteReadError) and not exc.partial
            if reused and status is None and unanswered:
                return None
            raise
        if headers.get("connection", "").lower() == "close":
            writer.close()
        else:
            self._idle.append((reader, writer))
        return ServiceResponse(status, headers, data)

    async def close(self) -> None:
        """Close every idle connection."""
        idle, self._idle = self._idle, []
        for _reader, writer in idle:
            writer.close()

    # -- SSE ---------------------------------------------------------------

    async def open_sse(
        self,
        path: str,
        last_event_id: Optional[int] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        """Open an emissions stream on a connection of its own; returns
        the live (reader, writer) after the 200 response head (caller
        owns closing the writer)."""
        request_headers = self._headers(headers)
        if last_event_id is not None:
            request_headers["Last-Event-ID"] = str(last_event_id)
        reader, writer = await asyncio.open_connection(self.host, self.port)
        writer.write(self._message("GET", path, b"", request_headers))
        status, response_headers = await self._read_head(reader)
        if status != 200:
            length = int(response_headers.get("content-length", "0") or 0)
            data = await reader.readexactly(length) if length else b""
            writer.close()
            raise RuntimeError(
                f"SSE open failed: {status} {data.decode('utf-8', 'replace')}"
            )
        return reader, writer

    @staticmethod
    async def read_event(
        reader: asyncio.StreamReader,
        include_heartbeats: bool = False,
    ) -> Optional[SseEvent]:
        """Parse the next SSE frame; ``None`` at end-of-stream.

        Comment-only frames (heartbeats) are skipped unless
        ``include_heartbeats`` — then they come back as an event named
        ``"heartbeat"`` with empty data.
        """
        while True:
            event_id: Optional[int] = None
            event: Optional[str] = None
            data_lines = []
            saw_comment = False
            while True:
                line = await reader.readline()
                if not line:
                    return None
                text = line.decode("utf-8").rstrip("\r\n")
                if not text:
                    break  # frame boundary
                if text.startswith(":"):
                    saw_comment = True
                elif text.startswith("id:"):
                    event_id = int(text[3:].strip())
                elif text.startswith("event:"):
                    event = text[6:].strip()
                elif text.startswith("data:"):
                    data_lines.append(text[5:].lstrip())
            if data_lines or event is not None:
                return SseEvent(event_id, event, "\n".join(data_lines))
            if saw_comment and include_heartbeats:
                return SseEvent(None, "heartbeat", "")
            # otherwise: heartbeat we were asked to skip; keep reading

    async def events(
        self,
        path: str,
        count: int,
        last_event_id: Optional[int] = None,
        timeout: float = 10.0,
    ) -> AsyncIterator[SseEvent]:
        """Consume exactly ``count`` data frames from one SSE stream."""
        reader, writer = await self.open_sse(path, last_event_id)
        try:
            for _ in range(count):
                frame = await asyncio.wait_for(
                    self.read_event(reader), timeout
                )
                if frame is None:
                    return
                yield frame
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
