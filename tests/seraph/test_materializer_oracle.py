"""``EMIT ... INTO`` materialization against its Cypher-``MERGE`` oracle.

:class:`StreamMaterializer` decides which node a row maps to with its
own per-column-set index; :class:`~tests.seraph.merge_oracle.MergeOracle`
answers the same question by running ``MERGE (r:<stream> {...})``
through the updating-Cypher evaluator.  On every generated emission
stream both must produce byte-identical elements and byte-identical
checkpoint documents — including the values where Cypher ``=`` differs
from Python ``==`` (null inside containers, NaN, ``1`` vs ``1.0`` vs
``true``) and rows that match several stored nodes.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.io import graph_to_dict
from repro.graph.table import Record, Table
from repro.graph.values import NULL
from repro.seraph import DERIVED_NODE_ID_BASE, StreamMaterializer
from repro.seraph.sinks import Emission
from repro.stream.timeline import TimeInterval
from repro.stream.tvt import TimeAnnotatedTable
from tests.seraph.merge_oracle import MergeOracle

COLUMNS = ("a", "b", "c")

SHARED_NAN = float("nan")

#: Values whose Cypher equality is not Python's: equal across types
#: (``1``/``1.0``, ``-0.0``/``0``, ``10**20``/``1e20``), never equal
#: (NaN, containers holding null), or distinct despite Python ``==``
#: (``true`` vs ``1``).
VALUES = st.one_of(
    st.sampled_from([
        NULL, NULL, 0, 1, 1.0, True, False, -0.0, 0.0, 10**20, 1e20,
        "x", "y", SHARED_NAN, [], [1, 2], [1.0, 2], [1, NULL], [NULL],
        {}, {"k": 1}, {"k": 1.0}, {"k": NULL}, [{"k": NULL}], [[1], True],
    ]),
    st.builds(float, st.just("nan")),  # a fresh NaN object each time
    st.integers(min_value=0, max_value=3),
)


@st.composite
def emission_streams(draw):
    """40 emissions at most; each picks its columns (uniform within the
    emission, mixed across emissions and through null values)."""
    emissions = []
    for instant in range(1, draw(st.integers(1, 40)) + 1):
        fields = draw(st.lists(st.sampled_from(COLUMNS), min_size=1,
                               max_size=3, unique=True))
        rows = draw(st.lists(
            st.fixed_dictionaries({field: VALUES for field in fields}),
            max_size=6,
        ))
        if rows and draw(st.booleans()):
            rows.append(dict(rows[0]))  # a duplicate row in one emission
        emissions.append(_emission(rows, fields, instant * 60))
    return emissions


def _emission(rows, fields, instant):
    table = Table([Record(row) for row in rows], fields=fields)
    return Emission("producer", instant,
                    TimeAnnotatedTable(table, TimeInterval(0, instant)))


def _text(document):
    """Byte form of a document; NaN renders, so NaN-carrying nodes
    compare by content, not by object identity."""
    return json.dumps(document, sort_keys=True)


def _run(materializer, emissions):
    return [
        None if element is None
        else (element.instant, _text(graph_to_dict(element.graph)))
        for element in map(materializer.materialize, emissions)
    ]


@settings(max_examples=120, deadline=None)
@given(emission_streams())
def test_materializer_equals_the_merge_oracle(emissions):
    production, oracle = StreamMaterializer("s"), MergeOracle("s")
    assert _run(production, emissions) == _run(oracle, emissions)
    assert _text(production.to_dict()) == _text(oracle.to_dict())


@settings(max_examples=50, deadline=None)
@given(emission_streams(), st.integers(min_value=0, max_value=40),
       st.integers(min_value=0, max_value=3))
def test_oracle_checkpoint_restores_into_production(emissions, cut, gap):
    oracle = MergeOracle("s")
    _run(oracle, emissions[:cut])
    document = json.loads(_text(oracle.to_dict()))  # as a file holds it
    document["next_node_id"] += gap  # ids the writer reserved stay unused
    restored = StreamMaterializer.from_dict(document)
    oracle = MergeOracle.from_dict(document)
    assert _text(restored.to_dict()) == _text(oracle.to_dict())
    assert _run(restored, emissions[cut:]) == _run(oracle, emissions[cut:])
    assert _text(restored.to_dict()) == _text(oracle.to_dict())


def test_rows_merge_by_cypher_equality():
    materializer = StreamMaterializer("s")
    nan = float("nan")
    first = materializer.materialize(_emission(
        [{"a": 1}, {"a": 1.0}, {"a": True}, {"a": [NULL]}, {"a": nan}],
        ["a"], 60,
    ))
    again = materializer.materialize(_emission(
        [{"a": 1}, {"a": True}, {"a": [NULL]}, {"a": nan}], ["a"], 120,
    ))
    base = DERIVED_NODE_ID_BASE
    # 1 and 1.0 are one node; true is another; [null] and NaN never
    # equal anything, so each of their rows is a new node.
    assert list(first.graph.nodes) == [base, base + 1, base + 2, base + 3]
    assert list(again.graph.nodes) == [base, base + 1, base + 4, base + 5]
    assert math.isnan(again.graph.node(base + 5).properties["a"])


def test_a_row_matches_every_node_carrying_its_columns():
    materializer = StreamMaterializer("s")
    base = DERIVED_NODE_ID_BASE
    materializer.materialize(_emission(
        [{"a": 1, "b": 2}, {"a": 1, "b": 3}, {"a": 2, "b": 2}],
        ["a", "b"], 60,
    ))
    element = materializer.materialize(_emission([{"a": 1}], ["a"], 120))
    assert list(element.graph.nodes) == [base, base + 1]
    assert materializer.next_node_id == base + 3


class _NoScan(dict):
    """A node map that fails every full iteration."""

    def __iter__(self):
        raise AssertionError("materializer scanned its nodes")

    def values(self):
        raise AssertionError("materializer scanned its nodes")

    items = keys = values


def test_an_indexed_column_set_never_scans_the_nodes():
    materializer = StreamMaterializer("s")
    rows = [{"a": value, "b": value % 7} for value in range(200)]
    materializer.materialize(_emission(rows, ["a", "b"], 60))
    materializer.nodes = _NoScan(materializer.nodes)
    element = materializer.materialize(_emission(
        rows[:50] + [{"a": 1000, "b": 0}], ["a", "b"], 120,
    ))
    assert len(element.graph.nodes) == 51
    assert len(materializer.nodes) == 201
    # The trap is live: a column set never seen before builds its index
    # from the nodes, once.
    with pytest.raises(AssertionError, match="scanned"):
        materializer.materialize(_emission([{"a": 1}], ["a"], 180))
