"""Dataflow chaining over the real service wire (docs/DATAFLOW.md).

Socket-level acceptance for the derived-stream surface: registering an
``EMIT ... INTO`` pipeline per tenant, listing derived streams with
producers/consumers and the materialization cursor, SSE byte-identity
on a derived stream, and the typed rejections (409 for a cycle, 404
for an unknown derived stream).
"""

import asyncio
import random

from repro.api import EngineConfig, build_engine
from repro.graph.generators import random_stream
from repro.runtime.checkpoint import graph_to_dict
from repro.seraph.sinks import CollectingSink
from repro.service.client import ServiceClient
from repro.service.server import SeraphService, ServiceConfig
from repro.service.sse import emission_json
from repro.service.tenants import TenantQuotas, TenantSpec

DETECT = """
REGISTER QUERY detect STARTING AT 1970-01-01T00:01
{
  MATCH (a)-[r:SENT]->(b) WITHIN PT2M
  EMIT id(a) AS src, id(b) AS dst SNAPSHOT EVERY PT1M
  INTO pairs
}
"""

ENRICH = """
REGISTER QUERY enrich STARTING AT 1970-01-01T00:01
{
  MATCH (p:pairs) FROM STREAM pairs WITHIN PT3M
  EMIT p.src AS src, count(*) AS hits SNAPSHOT EVERY PT1M
}
"""

CLOSING = """
REGISTER QUERY close STARTING AT 1970-01-01T00:01
{
  MATCH (h:hot) FROM STREAM hot WITHIN PT2M
  EMIT h.src AS src SNAPSHOT EVERY PT1M
  INTO pairs
}
"""


def elements():
    return random_stream(
        random.Random(3),
        num_events=6,
        period=60,
        start=0,
        nodes_per_event=3,
        relationships_per_event=3,
        shared_node_pool=5,
    )


def run(coroutine):
    return asyncio.run(coroutine)


async def start_service():
    service = SeraphService(ServiceConfig(
        port=0,
        tenants={"t": TenantSpec(name="t", quotas=TenantQuotas())},
    ))
    await service.start()
    return service


async def register(client, query):
    response = await client.request(
        "POST", "/tenants/t/queries", payload={"query": query}
    )
    assert response.status == 201, response.body
    return response.json()["query"]


async def push_and_advance(client, stream_elements):
    for element in stream_elements:
        response = await client.request(
            "POST", "/tenants/t/streams/default/events",
            payload={"instant": element.instant,
                     "graph": graph_to_dict(element.graph)},
        )
        assert response.status == 202, response.body
    response = await client.request(
        "POST", "/tenants/t/advance",
        payload={"until": stream_elements[-1].instant},
    )
    assert response.status == 200, response.body


def offline_detect_emissions(stream_elements):
    engine = build_engine(EngineConfig())
    sink = CollectingSink()
    engine.register(DETECT, sink=sink)
    engine.register(ENRICH)
    engine.run_stream(stream_elements)
    return [emission_json(emission) for emission in sink.emissions]


def test_streams_listing_names_producers_consumers_and_cursor():
    async def scenario():
        service = await start_service()
        client = ServiceClient("127.0.0.1", service.port)
        await register(client, DETECT)
        await register(client, ENRICH)
        data = elements()
        await push_and_advance(client, data)
        response = await client.request("GET", "/tenants/t/streams")
        assert response.status == 200
        document = response.json()
        assert document["tenant"] == "t"
        pairs = document["streams"]["pairs"]
        assert pairs["producers"] == ["detect"]
        assert pairs["consumers"] == ["enrich"]
        assert pairs["cursor"] > 0
        assert pairs["rows"] >= pairs["cursor"]
        await client.close()
        await service.stop()

    run(scenario())


def test_cycle_registration_rejected_with_409():
    async def scenario():
        service = await start_service()
        client = ServiceClient("127.0.0.1", service.port)
        await register(client, DETECT)
        await register(client, ENRICH.replace(
            "EVERY PT1M", "EVERY PT1M INTO hot"
        ).replace("QUERY enrich", "QUERY enrich_hot"))
        response = await client.request(
            "POST", "/tenants/t/queries", payload={"query": CLOSING}
        )
        assert response.status == 409, response.body
        assert response.json()["type"] == "DataflowCycleError"
        assert "-[pairs]->" in response.json()["error"]
        # The rejected query left the tenant's catalog untouched.
        listing = await client.request("GET", "/tenants/t/queries")
        assert sorted(listing.json()["queries"]) == \
            ["detect", "enrich_hot"]
        await client.close()
        await service.stop()

    run(scenario())


def test_unknown_derived_stream_404s():
    async def scenario():
        service = await start_service()
        client = ServiceClient("127.0.0.1", service.port)
        await register(client, DETECT)
        response = await client.request(
            "GET", "/tenants/t/streams/nope/emissions"
        )
        assert response.status == 404, response.body
        assert response.json()["type"] == "UnknownStreamError"
        await client.close()
        await service.stop()

    run(scenario())


def test_derived_stream_sse_is_byte_identical_to_offline_run():
    async def scenario():
        service = await start_service()
        client = ServiceClient("127.0.0.1", service.port)
        await register(client, DETECT)
        await register(client, ENRICH)
        reader, writer = await client.open_sse(
            "/tenants/t/streams/pairs/emissions"
        )
        data = elements()
        await push_and_advance(client, data)
        expected = offline_detect_emissions(data)
        assert expected  # the pipeline produced something to stream
        streamed = []
        while len(streamed) < len(expected):
            frame = await asyncio.wait_for(client.read_event(reader), 10.0)
            assert frame is not None
            streamed.append(frame.data)
        assert streamed == expected
        writer.close()
        await client.close()
        await service.stop()

    run(scenario())
