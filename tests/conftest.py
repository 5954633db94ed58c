"""Shared fixtures: small graphs and the running-example stream."""

from __future__ import annotations

import pytest

from repro.graph.builder import GraphBuilder
from repro.usecases.micromobility import figure1_stream, figure2_graph


@pytest.fixture
def social_graph():
    """A small Person/City graph used across Cypher tests.

    Alice(30) -KNOWS-> Bob(25) -KNOWS-> Carol(35); Alice -KNOWS-> Carol;
    Alice -LIVES_IN-> Leipzig; Carol -LIVES_IN-> Lyon.
    """
    builder = GraphBuilder()
    alice = builder.add_node(["Person"], {"name": "Alice", "age": 30}, node_id=1)
    bob = builder.add_node(["Person"], {"name": "Bob", "age": 25}, node_id=2)
    carol = builder.add_node(["Person"], {"name": "Carol", "age": 35}, node_id=3)
    leipzig = builder.add_node(["City"], {"name": "Leipzig"}, node_id=4)
    lyon = builder.add_node(["City"], {"name": "Lyon"}, node_id=5)
    builder.add_relationship(alice, "KNOWS", bob, {"since": 2015}, rel_id=1)
    builder.add_relationship(bob, "KNOWS", carol, {"since": 2018}, rel_id=2)
    builder.add_relationship(alice, "KNOWS", carol, {"since": 2020}, rel_id=3)
    builder.add_relationship(alice, "LIVES_IN", leipzig, rel_id=4)
    builder.add_relationship(carol, "LIVES_IN", lyon, rel_id=5)
    return builder.build()


@pytest.fixture
def rental_stream():
    """The exact Figure 1 stream of the running example."""
    return figure1_stream()


@pytest.fixture
def merged_rental_graph():
    """The Figure 2 merged graph."""
    return figure2_graph()
