"""Tests for the dead-letter quarantine."""

import json

import pytest

from repro.obs.registry import MetricsRegistry
from repro.runtime.deadletter import DeadLetterQueue
from repro.stream.stream import StreamElement
from repro.graph.model import PropertyGraph


class TestAppendAndAccess:
    def test_records_payload_reason_and_error(self):
        queue = DeadLetterQueue()
        error = ValueError("boom")
        entry = queue.append({"x": 1}, reason="bad shape", error=error,
                             stream="s", instant=42)
        assert entry.payload == {"x": 1}
        assert entry.reason == "bad shape"
        assert entry.error == "ValueError"
        assert entry.stream == "s"
        assert entry.instant == 42
        assert entry.sequence == 0
        assert len(queue) == 1 and bool(queue)

    def test_sequence_numbers_increase(self):
        queue = DeadLetterQueue()
        first = queue.append("a", reason="r")
        second = queue.append("b", reason="r")
        assert (first.sequence, second.sequence) == (0, 1)

    def test_metrics_counter_increments(self):
        registry = MetricsRegistry()
        queue = DeadLetterQueue(registry=registry)
        queue.append("a", reason="r")
        queue.append("b", reason="r")
        assert registry.value("resilience.dead_lettered") == 2


class TestCapacity:
    def test_capacity_drops_oldest_but_keeps_counting(self):
        queue = DeadLetterQueue(capacity=2)
        for index in range(4):
            queue.append(index, reason="r")
        assert len(queue) == 2
        assert [entry.payload for entry in queue] == [2, 3]
        assert queue.total_appended == 4

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            DeadLetterQueue(capacity=0)


class TestReplay:
    def test_replay_removes_accepted_keeps_failing(self):
        queue = DeadLetterQueue()
        queue.append(1, reason="r")
        queue.append(2, reason="r")
        queue.append(3, reason="r")

        def handler(entry):
            if entry.payload == 2:
                raise RuntimeError("still bad")

        replayed = queue.replay(handler)
        assert [entry.payload for entry in replayed] == [1, 3]
        assert [entry.payload for entry in queue] == [2]

    def test_drain_empties_the_queue(self):
        queue = DeadLetterQueue()
        queue.append(1, reason="r")
        drained = queue.drain()
        assert len(drained) == 1 and len(queue) == 0


class TestSerialization:
    def test_jsonl_is_parseable(self):
        queue = DeadLetterQueue()
        queue.append({"instant": 3}, reason="bad", instant=3)
        element = StreamElement(graph=PropertyGraph.of([], []), instant=7)
        queue.append(element, reason="late", instant=7)
        queue.append(object(), reason="opaque")
        lines = queue.to_jsonl().splitlines()
        documents = [json.loads(line) for line in lines]
        assert documents[0]["payload"] == {"instant": 3}
        assert documents[1]["payload"]["instant"] == 7
        assert "graph" in documents[1]["payload"]
        assert isinstance(documents[2]["payload"], str)  # repr fallback
