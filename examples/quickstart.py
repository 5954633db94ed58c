#!/usr/bin/env python3
"""Quickstart: register a continuous Seraph query and feed it a stream.

Builds a tiny property graph stream by hand, registers one continuous
query, and prints every non-empty emission — the smallest end-to-end use
of the public API.

Run:  python examples/quickstart.py
"""

from repro import GraphBuilder, build_engine
from repro.graph.temporal import format_hhmm, hhmm
from repro.seraph import PrintingSink

QUERY = """
REGISTER QUERY big_transfers STARTING AT 2022-08-01T09:05
{
  MATCH (a:Account)-[t:TRANSFER]->(b:Account)
  WITHIN PT15M
  WHERE t.amount >= 1000
  EMIT a.name AS sender, b.name AS receiver, t.amount AS amount
  ON ENTERING EVERY PT5M
}
"""


def transfer_event(rel_id, sender, receiver, amount):
    """One stream event: a single transfer between two accounts.

    Node ids are stable per account so events unify under UNA.
    """
    accounts = {"alice": 1, "bob": 2, "carol": 3}
    builder = GraphBuilder()
    src = builder.add_node(["Account"], {"name": sender},
                           node_id=accounts[sender])
    trg = builder.add_node(["Account"], {"name": receiver},
                           node_id=accounts[receiver])
    builder.add_relationship(src, "TRANSFER", trg, {"amount": amount},
                             rel_id=rel_id)
    return builder.build()


def main():
    engine = build_engine()
    engine.register(QUERY, sink=PrintingSink())

    events = [
        ("09:02", transfer_event(1, "alice", "bob", 50)),
        ("09:07", transfer_event(2, "bob", "carol", 2500)),
        ("09:12", transfer_event(3, "alice", "carol", 1200)),
        ("09:31", transfer_event(4, "carol", "alice", 80)),
    ]
    for wall_clock, graph in events:
        instant = hhmm(wall_clock)
        print(f"-- event arrives at {format_hhmm(instant)} "
              f"({graph.size} transfer)")
        engine.advance_to(instant - 1)   # fire evaluations due before it
        engine.ingest(graph, instant)
    engine.advance_to(hhmm("09:40"))     # drain remaining evaluations

    evaluations = engine.status()["queries"]["big_transfers"]["evaluations"]
    print(f"\n{evaluations} evaluations recorded; "
          "large transfers were reported exactly once each (ON ENTERING).")


if __name__ == "__main__":
    main()
