"""The conformance corpus's fixture graph, shared by the corpus and its
brute-force oracle check."""

import pytest

from repro.graph.builder import GraphBuilder


@pytest.fixture(scope="module")
def graph():
    """The TCK-ish fixture: a tiny org chart with typed edges.

    (alice:Person:Admin {age:35, team:'core'})
    (bob:Person {age:25, team:'core'})
    (carol:Person {age:45, team:'web'})
    (dave:Person {age:25})
    (acme:Company {name:'ACME'})
    alice-[:WORKS_AT {since:2010}]->acme
    bob-[:WORKS_AT {since:2020}]->acme
    alice-[:MANAGES]->bob ; carol-[:MANAGES]->dave
    bob-[:KNOWS]->carol ; carol-[:KNOWS]->bob
    """
    builder = GraphBuilder()
    alice = builder.add_node(["Person", "Admin"],
                             {"name": "alice", "age": 35, "team": "core"},
                             node_id=1)
    bob = builder.add_node(["Person"],
                           {"name": "bob", "age": 25, "team": "core"},
                           node_id=2)
    carol = builder.add_node(["Person"],
                             {"name": "carol", "age": 45, "team": "web"},
                             node_id=3)
    dave = builder.add_node(["Person"], {"name": "dave", "age": 25},
                            node_id=4)
    acme = builder.add_node(["Company"], {"name": "ACME"}, node_id=5)
    builder.add_relationship(alice, "WORKS_AT", acme, {"since": 2010},
                             rel_id=1)
    builder.add_relationship(bob, "WORKS_AT", acme, {"since": 2020},
                             rel_id=2)
    builder.add_relationship(alice, "MANAGES", bob, rel_id=3)
    builder.add_relationship(carol, "MANAGES", dave, rel_id=4)
    builder.add_relationship(bob, "KNOWS", carol, rel_id=5)
    builder.add_relationship(carol, "KNOWS", bob, rel_id=6)
    return builder.build()
