"""End-to-end service tests over real sockets.

Each test boots a :class:`SeraphService` on an ephemeral loopback port
inside ``asyncio.run`` (no pytest-asyncio dependency) and talks the real
wire protocol through :class:`repro.service.client.ServiceClient`.  The
acceptance properties from the PR brief live here: SSE byte-identity
with concurrent tenants, 429 quota rejection, slow-consumer shedding
that leaves other tenants untouched, and checkpoint → restart → restore
continuity.
"""

import asyncio
import json

import pytest

from repro.api import EngineConfig, build_engine
from repro.runtime.checkpoint import graph_to_dict
from repro.seraph.sinks import CollectingSink
from repro.service.client import ServiceClient
from repro.service.server import SeraphService, ServiceConfig
from repro.service.sse import emission_json
from repro.service.tenants import TenantQuotas, TenantSpec
from repro.usecases.micromobility import LISTING5_SERAPH, _t, figure1_stream

UNTIL = None  # set per test via _t


def offline_emissions(query=LISTING5_SERAPH, until=None):
    engine = build_engine(EngineConfig())
    sink = CollectingSink()
    engine.register(query, sink=sink)
    engine.run_stream(figure1_stream(), until=until)
    return [emission_json(e) for e in sink.emissions]


def event_payload(element):
    return {"instant": element.instant,
            "graph": graph_to_dict(element.graph)}


def run(coroutine):
    return asyncio.run(coroutine)


async def start_service(**config_kwargs):
    config_kwargs.setdefault("port", 0)
    service = SeraphService(ServiceConfig(**config_kwargs))
    await service.start()
    return service


def spec(name, **kwargs):
    quotas = kwargs.pop("quotas", None)
    return TenantSpec(
        name=name,
        quotas=quotas or TenantQuotas(),
        **kwargs,
    )


async def register(client, tenant, query=LISTING5_SERAPH):
    response = await client.request(
        "POST", f"/tenants/{tenant}/queries", payload={"query": query}
    )
    assert response.status == 201, response.body
    return response.json()["query"]


async def push_all(client, tenant, elements, stream="default"):
    for element in elements:
        response = await client.request(
            "POST", f"/tenants/{tenant}/streams/{stream}/events",
            payload=event_payload(element),
        )
        assert response.status == 202, response.body


class TestLifecycle:
    def test_health_status_and_clean_shutdown(self):
        async def scenario():
            service = await start_service()
            client = ServiceClient("127.0.0.1", service.port)
            health = await client.request("GET", "/healthz")
            assert health.status == 200
            status = await client.request("GET", "/status")
            document = status.json()
            assert document["schema"] == {
                "name": "repro.service", "version": 1,
            }
            assert document["tenants"] == {}
            await client.close()
            await service.stop()

        run(scenario())

    def test_unknown_route_404s(self):
        async def scenario():
            service = await start_service()
            client = ServiceClient("127.0.0.1", service.port)
            response = await client.request("GET", "/nope")
            assert response.status == 404
            await client.close()
            await service.stop()

        run(scenario())


class TestAuth:
    def test_protected_tenant_requires_token(self):
        async def scenario():
            service = await start_service(tenants={
                "locked": spec("locked", token="s3cret"),
            })
            bare = ServiceClient("127.0.0.1", service.port)
            denied = await bare.request(
                "GET", "/tenants/locked/status"
            )
            assert denied.status == 401
            assert denied.json()["type"] == "AuthenticationError"

            wrong = ServiceClient("127.0.0.1", service.port, token="nope")
            assert (await wrong.request(
                "GET", "/tenants/locked/status"
            )).status == 401

            good = ServiceClient("127.0.0.1", service.port, token="s3cret")
            assert (await good.request(
                "GET", "/tenants/locked/status"
            )).status == 200
            assert service.manager.tenants[
                "locked"].service_status()["metrics"]["auth_failures"] == 2
            await bare.close()
            await wrong.close()
            await good.close()
            await service.stop()

        run(scenario())

    def test_metrics_scrape_sits_behind_the_same_bearer_check(self):
        """``GET /tenants/{t}/metrics``: the tenant's registry in the
        Prometheus text format — its event, emission and evaluation
        counters after a push."""
        from repro.obs.export import parse_prometheus

        async def scenario():
            service = await start_service(tenants={
                "locked": spec("locked", token="s3cret"),
            })
            bare = ServiceClient("127.0.0.1", service.port)
            assert (await bare.request(
                "GET", "/tenants/locked/metrics"
            )).status == 401

            good = ServiceClient("127.0.0.1", service.port, token="s3cret")
            await register(good, "locked")
            await push_all(good, "locked", figure1_stream()[:2])
            scrape = await good.request("GET", "/tenants/locked/metrics")
            assert scrape.status == 200
            assert scrape.headers["content-type"].startswith("text/plain")
            samples = parse_prometheus(scrape.body.decode("utf-8"))
            assert samples["repro_service_tenant_locked_events_total"][""] \
                == 2
            # 14:45 .. 14:55 fired before the second arrival (15:00).
            assert samples[
                "repro_service_tenant_locked_emissions_total"][""] == 3
            assert samples["repro_engine_evaluations_total"][""] == 3
            assert samples[
                "repro_query_student_trick_evaluations_total"][""] == 3
            assert samples[
                "repro_service_tenant_locked_auth_failures_total"][""] == 1
            await bare.close()
            await good.close()
            await service.stop()

        run(scenario())

    def test_unknown_tenant_404s(self):
        async def scenario():
            service = await start_service()
            client = ServiceClient("127.0.0.1", service.port)
            response = await client.request("GET", "/tenants/ghost/status")
            assert response.status == 404
            assert response.json()["type"] == "UnknownTenantError"
            await client.close()
            await service.stop()

        run(scenario())

    def test_dynamic_tenants_autocreate(self):
        async def scenario():
            service = await start_service(allow_dynamic_tenants=True)
            client = ServiceClient("127.0.0.1", service.port)
            response = await client.request("GET", "/tenants/fresh/status")
            assert response.status == 200
            assert "fresh" in service.manager.tenants
            await client.close()
            await service.stop()

        run(scenario())


class TestByteIdentity:
    def test_two_concurrent_tenants_stream_byte_identical(self):
        async def scenario():
            service = await start_service(tenants={
                "alpha": spec("alpha", token="a-token"),
                "beta": spec("beta", token="b-token"),
            })
            alpha = ServiceClient("127.0.0.1", service.port,
                                  token="a-token")
            beta = ServiceClient("127.0.0.1", service.port,
                                 token="b-token")
            query_a = await register(alpha, "alpha")
            query_b = await register(beta, "beta")
            sse_a = await alpha.open_sse(
                f"/tenants/alpha/queries/{query_a}/emissions"
            )
            sse_b = await beta.open_sse(
                f"/tenants/beta/queries/{query_b}/emissions"
            )
            # Interleave the two tenants' pushes event by event.
            for element in figure1_stream():
                await push_all(alpha, "alpha", [element])
                await push_all(beta, "beta", [element])
            for client, tenant in ((alpha, "alpha"), (beta, "beta")):
                response = await client.request(
                    "POST", f"/tenants/{tenant}/advance",
                    payload={"until": _t("15:40")},
                )
                assert response.status == 200

            expected = offline_emissions(until=_t("15:40"))
            for client, (reader, writer) in (
                (alpha, sse_a), (beta, sse_b),
            ):
                streamed = []
                while len(streamed) < len(expected):
                    frame = await asyncio.wait_for(
                        client.read_event(reader), 10.0
                    )
                    assert frame is not None
                    streamed.append(frame.data)
                assert streamed == expected
                writer.close()
            await alpha.close()
            await beta.close()
            await service.stop()

        run(scenario())

    def test_ndjson_batch_ingests_whole_batch(self):
        async def scenario():
            service = await start_service(tenants={"t": spec("t")})
            client = ServiceClient("127.0.0.1", service.port)
            query = await register(client, "t")
            body = "\n".join(
                json.dumps(event_payload(element))
                for element in figure1_stream()
            ).encode("utf-8")
            response = await client.request(
                "POST", "/tenants/t/streams/default/events", body=body,
                headers={"Content-Type": "application/x-ndjson"},
            )
            assert response.status == 202
            assert response.json()["ingested"] == 5
            await client.request(
                "POST", "/tenants/t/advance",
                payload={"until": _t("15:40")},
            )
            expected = offline_emissions(until=_t("15:40"))
            streamed = []
            async for frame in client.events(
                f"/tenants/t/queries/{query}/emissions", len(expected)
            ):
                streamed.append(frame.data)
            assert streamed == expected
            await client.close()
            await service.stop()

        run(scenario())

    def test_json_array_batch_ingests_whole_batch(self):
        async def scenario():
            service = await start_service(tenants={"t": spec("t")})
            client = ServiceClient("127.0.0.1", service.port)
            await register(client, "t")
            response = await client.request(
                "POST", "/tenants/t/streams/default/events",
                payload=[event_payload(element)
                         for element in figure1_stream()],
            )
            assert response.status == 202
            assert response.json()["ingested"] == 5
            await client.close()
            await service.stop()

        run(scenario())

    def test_malformed_batch_rejected_whole(self):
        async def scenario():
            service = await start_service(tenants={"t": spec("t")})
            client = ServiceClient("127.0.0.1", service.port)
            await register(client, "t")
            good = json.dumps(event_payload(figure1_stream()[0]))
            body = (good + "\n{broken json\n").encode("utf-8")
            response = await client.request(
                "POST", "/tenants/t/streams/default/events", body=body,
            )
            assert response.status == 400
            # Nothing from the batch reached the engine.
            status = await client.request("GET", "/tenants/t/status")
            assert status.json()["service"]["metrics"]["events"] == 0
            await client.close()
            await service.stop()

        run(scenario())


class TestQuotas:
    def test_admission_quota_answers_429(self):
        async def scenario():
            service = await start_service(tenants={
                "t": spec("t", quotas=TenantQuotas(
                    max_events_per_sec=2.0, burst=2.0,
                )),
            })
            client = ServiceClient("127.0.0.1", service.port)
            await register(client, "t")
            elements = figure1_stream()
            await push_all(client, "t", elements[:2])
            rejected = await client.request(
                "POST", "/tenants/t/streams/default/events",
                payload=event_payload(elements[2]),
            )
            assert rejected.status == 429
            assert rejected.json()["type"] == "QuotaExceededError"
            status = await client.request("GET", "/tenants/t/status")
            assert status.json()["service"]["metrics"]["throttled"] == 1
            await client.close()
            await service.stop()

        run(scenario())

    def test_query_quota_answers_429(self):
        async def scenario():
            service = await start_service(tenants={
                "t": spec("t", quotas=TenantQuotas(max_queries=1)),
            })
            client = ServiceClient("127.0.0.1", service.port)
            await register(client, "t")
            response = await client.request(
                "POST", "/tenants/t/queries",
                payload={"query": LISTING5_SERAPH.replace(
                    "student_trick", "another"
                )},
            )
            assert response.status == 429
            await client.close()
            await service.stop()

        run(scenario())


class TestSse:
    def test_last_event_id_resume(self):
        async def scenario():
            service = await start_service(tenants={"t": spec("t")})
            client = ServiceClient("127.0.0.1", service.port)
            query = await register(client, "t")
            elements = figure1_stream()
            await push_all(client, "t", elements)
            await client.request(
                "POST", "/tenants/t/advance",
                payload={"until": _t("15:40")},
            )
            expected = offline_emissions(until=_t("15:40"))

            first_two = []
            reader, writer = await client.open_sse(
                f"/tenants/t/queries/{query}/emissions"
            )
            for _ in range(2):
                frame = await asyncio.wait_for(
                    client.read_event(reader), 10.0
                )
                first_two.append(frame)
            writer.close()

            resumed = []
            reader, writer = await client.open_sse(
                f"/tenants/t/queries/{query}/emissions",
                last_event_id=first_two[-1].event_id,
            )
            while len(first_two) + len(resumed) < len(expected):
                frame = await asyncio.wait_for(
                    client.read_event(reader), 10.0
                )
                resumed.append(frame)
            writer.close()
            combined = [f.data for f in first_two + resumed]
            assert combined == expected
            ids = [f.event_id for f in first_two + resumed]
            assert ids == list(range(len(expected)))
            await client.close()
            await service.stop()

        run(scenario())

    def test_heartbeats_flow_on_idle_streams(self):
        async def scenario():
            service = await start_service(
                tenants={"t": spec("t")}, heartbeat_seconds=0.05,
            )
            client = ServiceClient("127.0.0.1", service.port)
            query = await register(client, "t")
            reader, writer = await client.open_sse(
                f"/tenants/t/queries/{query}/emissions"
            )
            frame = await asyncio.wait_for(
                client.read_event(reader, include_heartbeats=True), 5.0
            )
            assert frame.event == "heartbeat"
            writer.close()
            await client.close()
            await service.stop()

        run(scenario())

    def test_lagged_consumer_is_shed_without_touching_others(self):
        async def scenario():
            service = await start_service(tenants={
                "small": spec("small", quotas=TenantQuotas(
                    max_buffered_emissions=2,
                )),
                "other": spec("other"),
            })
            small = ServiceClient("127.0.0.1", service.port)
            other = ServiceClient("127.0.0.1", service.port)
            query_s = await register(small, "small")
            query_o = await register(other, "other")
            sse_other = await other.open_sse(
                f"/tenants/other/queries/{query_o}/emissions"
            )

            elements = figure1_stream()
            await push_all(small, "small", elements)
            await push_all(other, "other", elements)
            for client, tenant in ((small, "small"), (other, "other")):
                await client.request(
                    "POST", f"/tenants/{tenant}/advance",
                    payload={"until": _t("15:40")},
                )

            # The small tenant produced more emissions than its bounded
            # log retains; resuming from the evicted range is exactly a
            # consumer that fell behind — it gets circuit-broken.
            reader, writer = await small.open_sse(
                f"/tenants/small/queries/{query_s}/emissions",
                last_event_id=0,
            )
            frame = await asyncio.wait_for(small.read_event(reader), 10.0)
            assert frame.event == "shed"
            assert "fell behind" in frame.json()["error"]
            assert await small.read_event(reader) is None  # disconnected
            writer.close()

            status = await small.request("GET", "/tenants/small/status")
            assert status.json()["service"]["metrics"][
                "shed_consumers"] == 1

            # The other tenant's consumer saw every emission regardless.
            expected = offline_emissions(until=_t("15:40"))
            reader_o, writer_o = sse_other
            streamed = []
            while len(streamed) < len(expected):
                frame = await asyncio.wait_for(
                    other.read_event(reader_o), 10.0
                )
                streamed.append(frame.data)
            assert streamed == expected
            other_status = await other.request(
                "GET", "/tenants/other/status"
            )
            assert other_status.json()["service"]["metrics"][
                "shed_consumers"] == 0
            writer_o.close()
            await small.close()
            await other.close()
            await service.stop()

        run(scenario())

    def test_undrainable_consumer_is_shed(self):
        """The drain-timeout half of the circuit breaker, driven through
        a writer whose transport never drains."""

        class StuckWriter:
            def __init__(self):
                self.frames = []
                self.closed = False

            def write(self, data):
                self.frames.append(data)

            async def drain(self):
                await asyncio.Event().wait()  # never drains

        async def scenario():
            service = await start_service(
                tenants={"t": spec("t")}, drain_timeout=0.05,
            )
            tenant = service.manager.get("t")
            tenant.register_query(LISTING5_SERAPH)
            log = tenant.log_for("student_trick")
            log.append("{}")
            writer = StuckWriter()
            await asyncio.wait_for(
                service._stream_emissions(writer, tenant, log, -1), 5.0
            )
            assert tenant.service_status()["metrics"]["shed_consumers"] == 1
            assert writer.frames  # the frame was written before the stall
            await service.stop()

        run(scenario())


class TestCheckpointRestore:
    def test_checkpoint_restart_restore_is_bag_equal(self):
        async def scenario():
            tenants = {"t": spec("t", token="tok")}
            service = await start_service(tenants=tenants)
            client = ServiceClient("127.0.0.1", service.port, token="tok")
            query = await register(client, "t")
            elements = figure1_stream()
            await push_all(client, "t", elements[:3])
            checkpoint = await client.request(
                "GET", "/tenants/t/checkpoint"
            )
            assert checkpoint.status == 200
            document = checkpoint.json()
            head = []
            async for frame in client.events(
                f"/tenants/t/queries/{query}/emissions",
                document["queries"][query]["next_event_id"],
            ):
                head.append(frame.data)
            await client.close()
            await service.stop()

            # A brand-new process: fresh service, same tenant spec.
            revived = await start_service(
                tenants={"t": spec("t", token="tok")}
            )
            client = ServiceClient("127.0.0.1", revived.port, token="tok")
            restored = await client.request(
                "POST", "/tenants/t/restore", payload=document,
            )
            assert restored.status == 200
            assert restored.json()["queries"] == [query]
            await push_all(client, "t", elements[3:])
            await client.request(
                "POST", "/tenants/t/advance",
                payload={"until": _t("15:40")},
            )
            expected = offline_emissions(until=_t("15:40"))
            tail = []
            async for frame in client.events(
                f"/tenants/t/queries/{query}/emissions",
                len(expected) - len(head),
                last_event_id=len(head) - 1,
            ):
                tail.append(frame.data)
            assert head + tail == expected
            await client.close()
            await revived.stop()

        run(scenario())

    def test_restore_rejects_bad_documents(self):
        async def scenario():
            service = await start_service(tenants={"t": spec("t")})
            client = ServiceClient("127.0.0.1", service.port)
            response = await client.request(
                "POST", "/tenants/t/restore", payload={"version": 99},
            )
            assert response.status == 400
            assert response.json()["type"] == "CheckpointError"
            await client.close()
            await service.stop()

        run(scenario())

    def test_restore_of_a_removed_backend_answers_a_typed_400(self):
        async def scenario():
            service = await start_service(tenants={"t": spec("t")})
            client = ServiceClient("127.0.0.1", service.port)
            document = (await client.request(
                "GET", "/tenants/t/checkpoint"
            )).json()
            document["engine"]["config"]["graph_backend"] = "columnar"
            response = await client.request(
                "POST", "/tenants/t/restore", payload=document,
            )
            assert response.status == 400
            assert response.json()["type"] == "EngineModeError"
            assert "graph_backend" in response.json()["error"]
            await client.close()
            await service.stop()

        run(scenario())


class TestErrors:
    def test_bad_query_answers_400(self):
        async def scenario():
            service = await start_service(tenants={"t": spec("t")})
            client = ServiceClient("127.0.0.1", service.port)
            response = await client.request(
                "POST", "/tenants/t/queries",
                payload={"query": "REGISTER QUERY broken {"},
            )
            assert response.status == 400
            await client.close()
            await service.stop()

        run(scenario())

    def test_duplicate_query_answers_409(self):
        async def scenario():
            service = await start_service(tenants={"t": spec("t")})
            client = ServiceClient("127.0.0.1", service.port)
            await register(client, "t")
            response = await client.request(
                "POST", "/tenants/t/queries",
                payload={"query": LISTING5_SERAPH},
            )
            assert response.status == 409
            assert response.json()["type"] == "QueryRegistryError"
            await client.close()
            await service.stop()

        run(scenario())

    def test_deregister_then_404_on_unknown(self):
        async def scenario():
            service = await start_service(tenants={"t": spec("t")})
            client = ServiceClient("127.0.0.1", service.port)
            query = await register(client, "t")
            gone = await client.request(
                "DELETE", f"/tenants/t/queries/{query}"
            )
            assert gone.status == 200
            again = await client.request(
                "DELETE", f"/tenants/t/queries/{query}"
            )
            assert again.status == 404
            await client.close()
            await service.stop()

        run(scenario())

    def test_oversized_body_answers_413(self):
        async def scenario():
            service = await start_service(
                tenants={"t": spec("t")}, max_body_bytes=64,
            )
            client = ServiceClient("127.0.0.1", service.port)
            response = await client.request(
                "POST", "/tenants/t/streams/default/events",
                body=b"x" * 100,
            )
            assert response.status == 413
            await client.close()
            await service.stop()

        run(scenario())

    def test_advance_requires_integer_until(self):
        async def scenario():
            service = await start_service(tenants={"t": spec("t")})
            client = ServiceClient("127.0.0.1", service.port)
            response = await client.request(
                "POST", "/tenants/t/advance", payload={"until": "later"},
            )
            assert response.status == 400
            await client.close()
            await service.stop()

        run(scenario())


class TestNoLeakedTasks:
    def test_stop_leaves_no_tasks_behind(self):
        async def scenario():
            service = await start_service(tenants={"t": spec("t")})
            client = ServiceClient("127.0.0.1", service.port)
            query = await register(client, "t")
            # An open SSE consumer at shutdown must be torn down too.
            reader, writer = await client.open_sse(
                f"/tenants/t/queries/{query}/emissions"
            )
            await client.close()
            await service.stop()
            writer.close()
            lingering = [
                task for task in asyncio.all_tasks()
                if task is not asyncio.current_task() and not task.done()
            ]
            assert lingering == []

        run(scenario())
