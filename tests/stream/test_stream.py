"""Unit tests for property graph streams (Definitions 5.2, 5.3)."""

import random

import pytest

from repro.errors import OutOfOrderEventError
from repro.graph.generators import random_stream
from repro.graph.model import PropertyGraph
from repro.stream.stream import PropertyGraphStream, StreamElement
from repro.stream.timeline import TimeInterval


def element(instant):
    return StreamElement(graph=PropertyGraph.empty(), instant=instant)


class TestAppendOrdering:
    def test_non_decreasing_accepted(self):
        stream = PropertyGraphStream()
        stream.append(element(1))
        stream.append(element(1))  # equal instants allowed
        stream.append(element(5))
        assert len(stream) == 3

    def test_out_of_order_rejected(self):
        stream = PropertyGraphStream([element(5)])
        with pytest.raises(OutOfOrderEventError):
            stream.append(element(3))

    def test_push_convenience(self):
        stream = PropertyGraphStream()
        pushed = stream.push(PropertyGraph.empty(), 7)
        assert pushed.instant == 7 and len(stream) == 1


class TestAccessors:
    def test_head_and_first(self):
        stream = PropertyGraphStream([element(2), element(9)])
        assert stream.first_instant == 2
        assert stream.head_instant == 9

    def test_empty_stream(self):
        stream = PropertyGraphStream()
        assert stream.head_instant is None
        assert stream.first_instant is None
        assert list(stream) == []

    def test_indexing(self):
        stream = PropertyGraphStream([element(1), element(2)])
        assert stream[1].instant == 2


class TestSubstreams:
    def test_substream_interval_semantics(self):
        stream = PropertyGraphStream([element(t) for t in (0, 5, 10, 15, 20)])
        picked = stream.substream(TimeInterval(5, 15))
        assert [item.instant for item in picked] == [5, 10]  # right-open

    def test_substream_closed_trailing_semantics(self):
        stream = PropertyGraphStream([element(t) for t in (0, 5, 10, 15, 20)])
        picked = stream.substream_closed(5, 15)
        assert [item.instant for item in picked] == [10, 15]  # (5, 15]

    def test_substream_of_empty_range(self):
        stream = PropertyGraphStream([element(10)])
        assert stream.substream(TimeInterval(0, 5)) == []

    def test_substream_duplicated_instants(self):
        stream = PropertyGraphStream([element(5), element(5), element(6)])
        assert len(stream.substream(TimeInterval(5, 6))) == 2


class TestEviction:
    def test_evict_before(self):
        stream = PropertyGraphStream([element(t) for t in (1, 2, 3, 4)])
        evicted = stream.evict_before(3)
        assert [item.instant for item in evicted] == [1, 2]
        assert [item.instant for item in stream] == [3, 4]

    def test_evict_count(self):
        stream = PropertyGraphStream([element(t) for t in (1, 2, 3)])
        evicted = stream.evict_count(2)
        assert [item.instant for item in evicted] == [1, 2]
        assert len(stream) == 1

    def test_substream_after_eviction(self):
        stream = PropertyGraphStream([element(t) for t in (1, 2, 3, 4)])
        stream.evict_before(3)
        assert [item.instant for item in stream.substream(TimeInterval(0, 10))] == [
            3, 4,
        ]


class TestWithGeneratedStreams:
    def test_generated_streams_load(self):
        elements = random_stream(random.Random(1), 25, period=10)
        stream = PropertyGraphStream(elements)
        assert len(stream) == 25
        window = stream.substream(TimeInterval(50, 100))
        assert all(50 <= item.instant < 100 for item in window)
