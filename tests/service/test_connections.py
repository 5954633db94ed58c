"""Connection semantics of the service (RFC 9112 §9.3) over real sockets.

Persistent connections on both ends: the server's per-connection request
loop (``Connection: close`` and HTTP/1.0 end it, pipelined requests are
answered in order, an idle connection closes after ``request_timeout``,
framing errors are answered and close it) and the client's stack of idle
connections (reuse, discard of server-closed ones, one retry of a
request whose reused connection died unanswered).  Plus shutdown with
idle, streaming and just-closed connections open, in process and through
``python -m repro serve`` on SIGINT.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.service.client import ServiceClient, parse_head
from repro.service.server import SeraphService, ServiceConfig
from repro.usecases.micromobility import LISTING5_SERAPH

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def run(coroutine):
    return asyncio.run(coroutine)


async def start_service(**config_kwargs):
    config_kwargs.setdefault("port", 0)
    config_kwargs.setdefault("allow_dynamic_tenants", True)
    service = SeraphService(ServiceConfig(**config_kwargs))
    await service.start()
    return service


async def until_eof(port, data):
    """Write ``data`` on a fresh connection; every byte until the server
    closes it (a server that keeps it open fails the 5 s bound)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(data)
        return await asyncio.wait_for(reader.read(), 5.0)
    finally:
        writer.close()


def split_responses(raw):
    """``[(status, headers, body)]`` framed by each Content-Length."""
    responses = []
    while raw:
        head, _, rest = raw.partition(b"\r\n\r\n")
        status_line, headers = parse_head(head + b"\r\n\r\n")
        length = int(headers["content-length"])
        responses.append((int(status_line.split()[1]), headers, rest[:length]))
        raw = rest[length:]
    return responses


class TestPersistence:
    def test_sequential_requests_share_one_connection(self):
        async def scenario():
            service = await start_service()
            client = ServiceClient("127.0.0.1", service.port)
            tasks = set()
            for index in range(50):
                response = await client.request(
                    "GET", f"/tenants/t{index}/queries"
                )
                assert response.status == 200
                assert response.json() == {
                    "tenant": f"t{index}", "queries": {},
                }
                assert "connection" not in response.headers
                tasks |= service._connections
            assert len(tasks) == 1
            status = await client.request("GET", "/status")
            assert status.json()["connections"] == 1
            await client.close()
            await service.stop()

        run(scenario())

    def test_pipelined_requests_answered_in_order(self):
        register = json.dumps({"query": LISTING5_SERAPH}).encode("utf-8")

        async def scenario():
            service = await start_service()
            raw = await until_eof(service.port, (
                b"POST /tenants/a/queries HTTP/1.1\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {len(register)}\r\n\r\n".encode()
                + register
                + b"GET /tenants/a/queries HTTP/1.1\r\n"
                b"Connection: close\r\n\r\n"
            ))
            await service.stop()
            return split_responses(raw)

        (first, first_headers, _), (second, second_headers, body) = \
            run(scenario())
        assert (first, second) == (201, 200)
        assert "connection" not in first_headers
        assert second_headers["connection"] == "close"
        assert list(json.loads(body.decode("utf-8"))["queries"]) == [
            "student_trick"
        ]

    @pytest.mark.parametrize("request_bytes", [
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        b"GET /healthz HTTP/1.0\r\n\r\n",
    ], ids=["connection-close", "http-1.0"])
    def test_close_is_announced_then_eof(self, request_bytes):
        async def scenario():
            service = await start_service()
            raw = await until_eof(service.port, request_bytes)
            await service.stop()
            return split_responses(raw)

        [(status, headers, body)] = run(scenario())
        assert (status, body) == (200, b'{"ok": true}')
        assert headers["connection"] == "close"

    def test_413_then_200_on_one_client(self):
        async def scenario():
            service = await start_service(max_body_bytes=64)
            client = ServiceClient("127.0.0.1", service.port)
            refused = await client.request(
                "POST", "/tenants/t/streams/default/events", body=b"x" * 100,
            )
            assert refused.status == 413
            assert refused.headers["connection"] == "close"
            assert (await client.request("GET", "/healthz")).status == 200
            await client.close()
            await service.stop()

        run(scenario())

    def test_concurrent_requests_never_share_a_connection(self):
        async def scenario():
            service = await start_service()
            client = ServiceClient("127.0.0.1", service.port)
            answers = await asyncio.gather(*(
                client.request("GET", f"/tenants/t{index}/queries")
                for index in range(8)
            ))
            assert [answer.json()["tenant"] for answer in answers] == [
                f"t{index}" for index in range(8)
            ]
            await client.close()
            await service.stop()

        run(scenario())


class TestIdleConnections:
    def test_client_recovers_after_the_server_closes_an_idle_connection(self):
        async def scenario():
            service = await start_service(request_timeout=0.2)
            client = ServiceClient("127.0.0.1", service.port)
            assert (await client.request("GET", "/healthz")).status == 200
            await asyncio.sleep(0.5)
            assert not service._connections  # the server closed it
            assert (await client.request("GET", "/healthz")).status == 200
            await client.close()
            await service.stop()

        run(scenario())

    def test_request_on_a_dead_reused_connection_is_retried_once(self):
        """The server's close has not been seen when the request goes
        out: the request ends unanswered and is sent on a fresh one."""

        async def scenario():
            service = await start_service(request_timeout=0.2)
            client = ServiceClient("127.0.0.1", service.port)
            assert (await client.request("GET", "/healthz")).status == 200
            await asyncio.sleep(0.5)
            [(reader, _writer)] = client._idle
            reader.at_eof = lambda: False  # hide the close from the check
            response = await client.request("GET", "/tenants/t/queries")
            assert response.json() == {"tenant": "t", "queries": {}}
            assert len(client._idle) == 1 and client._idle[0][0] is not reader
            await client.close()
            await service.stop()

        run(scenario())


class TestHostileFraming:
    @pytest.mark.parametrize("request_bytes,status", [
        (b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * (64 * 1024 + 16)
         + b"\r\n\r\n", 431),
        (b"POST /healthz HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
        (b"POST /healthz HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
    ], ids=["header-over-stream-limit", "content-length-abc",
            "content-length-negative"])
    def test_typed_answer_then_close(self, request_bytes, status):
        unhandled = []

        async def scenario():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context)
            )
            service = await start_service()
            raw = await until_eof(service.port, request_bytes)
            await service.stop()
            return split_responses(raw)

        [(answered, headers, body)] = run(scenario())
        assert answered == status
        assert headers["connection"] == "close"
        assert headers["content-type"] == "application/json"
        assert "error" in json.loads(body.decode("utf-8"))
        assert unhandled == []


class TestShutdown:
    @pytest.mark.parametrize("how", ["stop", "cancel-serve-forever"])
    def test_stop_is_prompt_with_idle_streaming_and_closed_connections(
        self, how
    ):
        async def scenario():
            config = ServiceConfig(
                port=0, allow_dynamic_tenants=True, request_timeout=30.0,
                heartbeat_seconds=15.0,
            )
            service = SeraphService(config)
            if how == "stop":
                await service.start()
            else:
                serving = asyncio.ensure_future(service.serve_forever())
                while service._server is None:
                    await asyncio.sleep(0.01)
            client = ServiceClient("127.0.0.1", service.port)
            registered = await client.request(
                "POST", "/tenants/t/queries",
                payload={"query": LISTING5_SERAPH},
            )
            path = f"/tenants/t/queries/{registered.json()['query']}/emissions"
            _reader, streaming = await client.open_sse(path)
            _reader, detached = await client.open_sse(path)
            detached.close()
            await asyncio.sleep(0.05)
            started = time.perf_counter()
            if how == "stop":
                await service.stop()
            else:
                serving.cancel()
                await asyncio.wait({serving}, timeout=5.0)
                assert serving.done()
            elapsed = time.perf_counter() - started
            streaming.close()
            await client.close()
            lingering = [
                task for task in asyncio.all_tasks()
                if task is not asyncio.current_task() and not task.done()
            ]
            return elapsed, lingering

        elapsed, lingering = run(scenario())
        assert elapsed < 1.0
        assert lingering == []

    def test_sigint_ends_serve_with_an_sse_consumer_attached(self):
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--allow-dynamic-tenants"],
            stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": SRC},
            # A parent that ignores SIGINT would pass that on to the child.
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        loop = asyncio.new_event_loop()
        client = streaming = None
        try:
            line = process.stderr.readline()
            assert "listening on" in line, line
            port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            client = ServiceClient("127.0.0.1", port)
            registered = loop.run_until_complete(client.request(
                "POST", "/tenants/t/queries",
                payload={"query": LISTING5_SERAPH},
            ))
            _reader, streaming = loop.run_until_complete(client.open_sse(
                f"/tenants/t/queries/{registered.json()['query']}/emissions"
            ))
            process.send_signal(signal.SIGINT)
            started = time.perf_counter()
            assert process.wait(timeout=5.0) == 0
            assert time.perf_counter() - started < 5.0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stderr.close()
            if streaming is not None:
                streaming.close()
            if client is not None:
                loop.run_until_complete(client.close())
            loop.close()
