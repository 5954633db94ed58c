"""End-to-end smoke check: boot, register, push, stream, shut down.

Run as ``python -m repro.service.smoke`` (wired up as ``make
serve-smoke``): starts a real :class:`SeraphService` on an ephemeral
port, registers the paper's Listing 5 query for one tenant, pushes the
Figure 1 stream over HTTP, asserts at least one SSE emission arrives
byte-identical to an offline run, checks tenant status, and shuts the
service down cleanly — failing loudly if any asyncio task leaks.
"""

from __future__ import annotations

import asyncio
import sys

from repro.api import EngineConfig, build_engine
from repro.runtime.checkpoint import graph_to_dict
from repro.seraph.sinks import CollectingSink
from repro.service.client import ServiceClient
from repro.service.server import SeraphService, ServiceConfig
from repro.service.sse import emission_json
from repro.service.tenants import TenantQuotas, TenantSpec
from repro.usecases.micromobility import LISTING5_SERAPH, _t, figure1_stream

TENANT = "smoke"
TOKEN = "smoke-secret"


def offline_emissions():
    """The ground truth: Listing 5 over Figure 1 on a bare engine."""
    engine = build_engine(EngineConfig())
    sink = CollectingSink()
    engine.register(LISTING5_SERAPH, sink=sink)
    engine.run_stream(figure1_stream(), until=_t("15:40"))
    return [emission_json(emission) for emission in sink.emissions]


async def run_smoke() -> int:
    service = SeraphService(ServiceConfig(
        port=0,
        tenants={TENANT: TenantSpec(
            name=TENANT, token=TOKEN,
            quotas=TenantQuotas(max_buffered_emissions=64),
        )},
        heartbeat_seconds=1.0,
    ))
    await service.start()
    client = ServiceClient("127.0.0.1", service.port, token=TOKEN)
    try:
        health = await client.request("GET", "/healthz")
        assert health.status == 200, health.body

        registered = await client.request(
            "POST", f"/tenants/{TENANT}/queries",
            payload={"query": LISTING5_SERAPH},
        )
        assert registered.status == 201, registered.body
        query = registered.json()["query"]

        reader, writer = await client.open_sse(
            f"/tenants/{TENANT}/queries/{query}/emissions"
        )
        for element in figure1_stream():
            pushed = await client.request(
                "POST", f"/tenants/{TENANT}/streams/default/events",
                payload={
                    "instant": element.instant,
                    "graph": graph_to_dict(element.graph),
                },
            )
            assert pushed.status == 202, pushed.body
        advanced = await client.request(
            "POST", f"/tenants/{TENANT}/advance",
            payload={"until": _t("15:40")},
        )
        assert advanced.status == 200, advanced.body

        expected = offline_emissions()
        assert expected, "offline run produced no emissions"
        streamed = []
        while len(streamed) < len(expected):
            frame = await asyncio.wait_for(
                client.read_event(reader), timeout=10.0
            )
            assert frame is not None, "SSE stream ended early"
            assert frame.event == "emission", frame.event
            streamed.append(frame.data)
        writer.close()
        assert streamed == expected, (
            "service emissions diverged from the offline run"
        )

        status = await client.request("GET", f"/tenants/{TENANT}/status")
        assert status.status == 200
        service_section = status.json()["service"]
        assert service_section["metrics"]["events"] == len(figure1_stream())
        assert service_section["metrics"]["emissions"] >= len(expected)
    finally:
        await client.close()
        await service.stop()

    lingering = [
        task for task in asyncio.all_tasks()
        if task is not asyncio.current_task() and not task.done()
    ]
    assert not lingering, f"leaked asyncio tasks: {lingering}"
    print(
        f"serve-smoke OK: {len(figure1_stream())} events -> "
        f"{len(streamed)} byte-identical SSE emissions, clean shutdown"
    )
    return 0


def main() -> int:
    return asyncio.run(run_smoke())


if __name__ == "__main__":
    sys.exit(main())
