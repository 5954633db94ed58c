#!/usr/bin/env python3
"""A composed streaming pipeline using the future-work extensions.

Demonstrates, end to end, the three extension features the paper lists
as future work (Sections 6 and 8):

1. **partitioning** — the Figure 1 rental stream is split into logical
   ``rentedAt`` / ``returnedAt`` sub-streams, one per relationship type
   (future work ii);
2. **multiple streams** — a continuous query joins the two sub-streams
   with per-stream ``FROM STREAM … WITHIN`` windows (future work i);
3. **graph-to-graph** — its emissions are materialized as a *new*
   property graph stream (future work iv) that a second, downstream
   continuous query consumes, with a **static graph** (future work iii)
   providing zone metadata.

Run:  python examples/streaming_pipeline.py
"""

from repro import GraphBuilder, PropertyGraph, SeraphEngine
from repro.graph.temporal import format_hhmm
from repro.seraph import (
    CollectingSink,
    ConstructingSink,
    GraphTemplate,
    NodeSpec,
    RelationshipSpec,
    explain,
)
from repro.stream import StreamElement
from repro.usecases.micromobility import _t, figure1_stream

STAGE1 = """
REGISTER QUERY completed_rentals STARTING AT 2022-08-01T14:45
{
  MATCH (b:Bike)-[r:rentedAt]->(:Station)
    FROM STREAM rentedAt WITHIN PT1H
  MATCH (b2:Bike)-[t:returnedAt]->(s:Station)
    FROM STREAM returnedAt WITHIN PT1H
  WHERE b.id = b2.id AND t.user_id = r.user_id
    AND t.val_time > r.val_time
  EMIT r.user_id AS user_id, b.id AS bike_id, s.id AS station_id,
       t.duration AS minutes
  ON ENTERING EVERY PT5M
}
"""

STAGE2 = """
REGISTER QUERY zone_activity STARTING AT 2022-08-01T15:40
{
  MATCH (u:User)-[c:COMPLETED]->(s:Station)-[:IN_ZONE]->(z:Zone)
  WITHIN PT2H
  EMIT z.name AS zone, count(c) AS completed_rentals,
       avg(c.minutes) AS avg_minutes
  SNAPSHOT EVERY PT5M
}
"""

TEMPLATE = GraphTemplate(
    nodes=(
        NodeSpec(key="user_id", labels=("User",), properties=("user_id",)),
        NodeSpec(key="station_id", labels=("Station",),
                 properties=("station_id",), id_offset=0),
    ),
    relationships=(
        RelationshipSpec(src_key="user_id", trg_key="station_id",
                         rel_type="COMPLETED", properties=("minutes",)),
    ),
)


def zones_graph():
    """Static metadata: stations 1/2 are downtown, 3/4 are campus."""
    builder = GraphBuilder()
    downtown = builder.add_node(["Zone"], {"name": "downtown"}, node_id=800)
    campus = builder.add_node(["Zone"], {"name": "campus"}, node_id=801)
    for station, zone in ((1, downtown), (2, downtown), (3, campus),
                          (4, campus)):
        builder.add_node(["Station"], {"id": station}, node_id=station)
        builder.add_relationship(station, "IN_ZONE", zone,
                                 rel_id=8000 + station)
    return builder.build()


def by_relationship_type(elements):
    """One sub-stream per relationship type: each event graph splits into
    its relationships of that type plus their endpoint nodes."""
    streams = {}
    for element in elements:
        graph = element.graph
        typed = {}
        for rel in graph.relationships.values():
            typed.setdefault(rel.type, []).append(rel)
        for rel_type, rels in typed.items():
            nodes = {node_id: graph.node(node_id)
                     for rel in rels for node_id in (rel.src, rel.trg)}
            streams.setdefault(rel_type, []).append(StreamElement(
                graph=PropertyGraph.of(nodes.values(), rels),
                instant=element.instant,
            ))
    return streams


def main():
    # Stage 0: partition the raw stream into logical sub-streams.
    partitions = by_relationship_type(figure1_stream())
    print("Partitions:",
          {name: len(elements) for name, elements in partitions.items()})

    # Stage 1: join the sub-streams; construct an output graph stream.
    stage1 = SeraphEngine()
    constructing = ConstructingSink(TEMPLATE)
    stage1.register(STAGE1, sink=constructing)
    print("\n" + explain(STAGE1) + "\n")
    stage1.run_streams(partitions, until=_t("15:40"))
    print(f"Stage 1 produced {len(constructing.elements)} output events:")
    for element in constructing.elements:
        completions = [
            f"user {rel.property('user_id') or rel.src} -> "
            f"station {rel.trg} ({rel.property('minutes')} min)"
            for rel in element.graph.relationships.values()
        ]
        print(f"  {format_hhmm(element.instant)}: {completions}")

    # Stage 2: downstream query over the constructed stream + static zones.
    stage2 = SeraphEngine(static_graph=zones_graph())
    sink = CollectingSink()
    stage2.register(STAGE2, sink=sink)
    stage2.run_stream(constructing.elements, until=_t("15:40"))
    final = sink.emissions[-1]
    print(f"\nZone activity at {format_hhmm(final.instant)}:")
    print(final.table.render(["zone", "completed_rentals", "avg_minutes"]))


if __name__ == "__main__":
    main()
