"""Tests for the bounded out-of-order reorder buffer."""

import pytest

from repro.errors import LateEventError
from repro.graph.model import PropertyGraph
from repro.obs.registry import MetricsRegistry
from repro.runtime.deadletter import DeadLetterQueue
from repro.runtime.policies import FaultPolicy
from repro.runtime.reorder import ReorderBuffer
from repro.stream.stream import StreamElement


def element(instant, tag=0):
    graph = PropertyGraph.of([], []) if tag == 0 else PropertyGraph.of([], [])
    return StreamElement(graph=graph, instant=instant)


def instants(elements):
    return [el.instant for el in elements]


class TestInOrderPassThrough:
    def test_zero_lateness_releases_immediately(self):
        buffer = ReorderBuffer(allowed_lateness=0)
        assert instants(buffer.offer(element(10))) == [10]
        assert instants(buffer.offer(element(20))) == [20]
        assert len(buffer) == 0

    def test_equal_instants_keep_arrival_order(self):
        buffer = ReorderBuffer(allowed_lateness=0)
        first = element(10)
        second = element(10)
        released = buffer.offer(first) + buffer.offer(second)
        assert released == [first, second]


class TestReordering:
    def test_holds_back_until_watermark_passes_lateness(self):
        buffer = ReorderBuffer(allowed_lateness=10)
        assert buffer.offer(element(10)) == []   # watermark 10, ripe<=0
        assert instants(buffer.offer(element(25))) == [10]  # ripe <= 15
        assert instants(buffer.offer(element(40))) == [25]
        assert instants(buffer.flush()) == [40]

    def test_resequences_out_of_order_within_bound(self):
        buffer = ReorderBuffer(allowed_lateness=10)
        released = []
        for instant in [10, 20, 15, 30, 25, 40]:
            released.extend(buffer.offer(element(instant)))
        released.extend(buffer.flush())
        assert instants(released) == [10, 15, 20, 25, 30, 40]

    def test_reordered_metric_counts_disordered_arrivals(self):
        registry = MetricsRegistry()
        buffer = ReorderBuffer(allowed_lateness=10, registry=registry)
        for instant in [10, 20, 15, 30]:
            buffer.offer(element(instant))
        assert registry.value("resilience.reordered") == 1


class TestLateEvents:
    def test_late_event_dead_lettered(self):
        registry = MetricsRegistry()
        dlq = DeadLetterQueue(registry=registry)
        buffer = ReorderBuffer(
            allowed_lateness=5, late_policy=FaultPolicy.DEAD_LETTER,
            dead_letters=dlq, registry=registry, stream="s",
        )
        buffer.offer(element(10))
        buffer.offer(element(30))  # frontier -> 25
        assert buffer.offer(element(12)) == []
        assert len(dlq) == 1
        assert dlq.entries[0].instant == 12
        assert dlq.entries[0].stream == "s"
        assert registry.value("resilience.late_events") == 1
        assert registry.value("resilience.late_dropped") == 1

    def test_late_event_raises_under_fail_fast(self):
        buffer = ReorderBuffer(
            allowed_lateness=0, late_policy=FaultPolicy.FAIL_FAST
        )
        buffer.offer(element(10))
        with pytest.raises(LateEventError):
            buffer.offer(element(5))

    def test_late_event_dropped_under_skip(self):
        registry = MetricsRegistry()
        buffer = ReorderBuffer(
            allowed_lateness=0, late_policy=FaultPolicy.SKIP,
            registry=registry,
        )
        buffer.offer(element(10))
        assert buffer.offer(element(5)) == []
        assert registry.value("resilience.late_dropped") == 1

    def test_element_at_frontier_is_not_late(self):
        buffer = ReorderBuffer(allowed_lateness=0)
        buffer.offer(element(10))
        # Equal instant keeps the stream non-decreasing: acceptable.
        assert instants(buffer.offer(element(10))) == [10]


class TestFlushAndState:
    def test_flush_releases_everything_sorted(self):
        buffer = ReorderBuffer(allowed_lateness=100)
        for instant in [30, 10, 20]:
            assert buffer.offer(element(instant)) == []
        assert instants(buffer.flush()) == [10, 20, 30]
        assert len(buffer) == 0

    def test_flush_advances_frontier(self):
        buffer = ReorderBuffer(allowed_lateness=100,
                               late_policy=FaultPolicy.SKIP)
        buffer.offer(element(50))
        buffer.flush()
        assert buffer.frontier == 50
        assert buffer.offer(element(10)) == []  # now late -> skipped

    def test_restore_state_round_trip(self):
        buffer = ReorderBuffer(allowed_lateness=10)
        for instant in [10, 30, 20]:
            buffer.offer(element(instant))
        pending = buffer.pending
        clone = ReorderBuffer(allowed_lateness=10)
        clone.restore_state(
            watermark=buffer.watermark,
            frontier=buffer.frontier,
            pending=pending,
        )
        assert instants(clone.flush()) == instants(buffer.flush())

    def test_negative_lateness_rejected(self):
        with pytest.raises(ValueError):
            ReorderBuffer(allowed_lateness=-1)
