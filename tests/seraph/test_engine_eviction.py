"""Direct tests for `_StreamState.evict` eviction bookkeeping.

The engine bounds memory by dropping stream elements no future
evaluation can reach; `base_seq` keeps global sequence numbers stable
across drops so window states can still catch up.  These invariants were
previously only exercised indirectly.
"""

from repro.graph.model import PropertyGraph
from repro.seraph import CollectingSink, SeraphEngine
from repro.seraph.engine import _StreamState
from repro.stream.stream import StreamElement


def element(instant):
    return StreamElement(graph=PropertyGraph.of([], []), instant=instant)


def state_with(instants, base_seq=0):
    state = _StreamState("s")
    for instant in instants:
        state.append(element(instant))
    state.base_seq = base_seq
    return state


class TestEvict:
    def test_no_op_when_horizon_before_all_elements(self):
        state = state_with([10, 20, 30])
        state.evict(horizon=5, min_seq=10)
        assert [el.instant for el in state.elements] == [10, 20, 30]
        assert state.base_seq == 0

    def test_partial_horizon_eviction(self):
        state = state_with([10, 20, 30, 40])
        state.evict(horizon=25, min_seq=100)
        assert [el.instant for el in state.elements] == [30, 40]
        assert state.base_seq == 2

    def test_full_eviction_advances_base_seq_past_everything(self):
        state = state_with([10, 20, 30])
        state.evict(horizon=30, min_seq=100)
        assert state.elements == []
        assert state.base_seq == 3

    def test_min_seq_caps_eviction_regardless_of_horizon(self):
        """Elements a window has not consumed yet must be retained even
        when they predate the horizon."""
        state = state_with([10, 20, 30, 40])
        state.evict(horizon=100, min_seq=1)
        assert [el.instant for el in state.elements] == [20, 30, 40]
        assert state.base_seq == 1

    def test_min_seq_respects_prior_base_seq(self):
        """After earlier evictions the global sequence of elements[0] is
        base_seq, not 0 — min_seq comparisons must use global numbers."""
        state = state_with([30, 40, 50], base_seq=5)
        # Global seqs are 5, 6, 7; min_seq 6 allows dropping only seq 5.
        state.evict(horizon=100, min_seq=6)
        assert [el.instant for el in state.elements] == [40, 50]
        assert state.base_seq == 6

    def test_eviction_stops_at_first_retained_element(self):
        """Eviction is a prefix drop: a retained element shields every
        later one, even if a later element predates the horizon (cannot
        happen with non-decreasing instants, but the bookkeeping must
        not skip ahead)."""
        state = state_with([10, 20, 30])
        state.evict(horizon=15, min_seq=100)
        assert [el.instant for el in state.elements] == [20, 30]
        assert state.base_seq == 1

    def test_repeated_eviction_accumulates_base_seq(self):
        state = state_with([10, 20, 30, 40])
        state.evict(horizon=10, min_seq=100)
        assert state.base_seq == 1
        state.evict(horizon=30, min_seq=100)
        assert state.base_seq == 3
        assert [el.instant for el in state.elements] == [40]


class TestEngineEvictionIntegration:
    QUERY = """
    REGISTER QUERY recent STARTING AT 1970-01-01T00:01
    {
      MATCH ()-[r]->() WITHIN PT2M
      EMIT count(r) AS n SNAPSHOT EVERY PT1M
    }
    """

    def test_engine_run_evicts_unreachable_elements(self):
        engine = SeraphEngine()
        engine.register(self.QUERY, sink=CollectingSink())
        elements = [element(60 * step) for step in range(1, 11)]
        engine.run_stream(elements)
        # Only elements a future 2-minute window can reach remain.
        assert engine.retained_elements <= 2
        state = engine._streams["default"]
        assert state.base_seq == len(elements) - len(state.elements)

    def test_results_unaffected_by_eviction(self):
        """The same run with eviction disabled (wide window) agrees on
        the overlapping evaluations — eviction is purely bookkeeping."""
        narrow = SeraphEngine()
        sink = CollectingSink()
        narrow.register(self.QUERY, sink=sink)
        elements = [element(60 * step) for step in range(1, 11)]
        narrow.run_stream(elements)
        assert len(sink.emissions) == 10
        # Every evaluation saw at most the last two arrivals.
        for emission in sink.emissions:
            (record,) = list(emission.table)
            assert record["n"] <= 2


def graph_element(instant, node_id):
    from repro.graph.model import Node

    node = Node(id=node_id, labels=("N",), properties=())
    return StreamElement(graph=PropertyGraph.of([node], []), instant=instant)


class TestEvictionAfterQueryLifecycle:
    """Regression: the engine used to retain stream elements and shared
    window states forever once every query was done or deregistered."""

    CONTINUOUS = """
    REGISTER QUERY live STARTING AT 1970-01-01T00:01
    {
      MATCH (n) WITHIN PT2M
      EMIT id(n) AS n SNAPSHOT EVERY PT1M
    }
    """
    ONESHOT = """
    REGISTER QUERY once STARTING AT 1970-01-01T00:01
    {
      MATCH (n) WITHIN PT2M
      RETURN id(n) AS n
    }
    """

    def test_retained_zero_after_oneshot_completes(self):
        engine = SeraphEngine()
        engine.register(self.ONESHOT, sink=CollectingSink())
        elements = [graph_element(30 * step, step) for step in range(1, 8)]
        emissions = engine.run_stream(elements)
        assert any(not emission.is_empty() for emission in emissions)
        assert engine.registered("once").done
        assert engine.retained_elements == 0

    def test_retained_zero_after_deregister(self):
        engine = SeraphEngine()
        engine.register(self.CONTINUOUS, sink=CollectingSink())
        elements = [graph_element(30 * step, step) for step in range(1, 8)]
        engine.run_stream(elements)
        assert engine.retained_elements > 0
        engine.deregister("live")
        assert engine.retained_elements == 0

    def test_deregister_prunes_shared_window_states(self):
        engine = SeraphEngine()
        engine.register(self.CONTINUOUS, sink=CollectingSink())
        assert len(engine._shared_windows) == 1
        engine.deregister("live")
        assert engine._shared_windows == {}

    def test_done_query_releases_shared_window_state(self):
        engine = SeraphEngine()
        engine.register(self.ONESHOT, sink=CollectingSink())
        elements = [graph_element(30 * step, step) for step in range(1, 8)]
        engine.run_stream(elements)
        assert engine.registered("once").done
        assert engine._shared_windows == {}

    def test_unread_stream_is_fully_evicted(self):
        """A stream no live query reads holds nothing any future
        evaluation can reach."""
        engine = SeraphEngine()
        engine.register(self.CONTINUOUS, sink=CollectingSink())
        for step in range(1, 6):
            engine.ingest_element(graph_element(30 * step, step), "other")
            engine.ingest_element(graph_element(30 * step, 100 + step))
        engine.advance_to(150)
        assert len(engine._streams["other"].elements) == 0
        assert len(engine._streams["default"].elements) > 0

    def test_live_query_still_pins_its_stream(self):
        engine = SeraphEngine()
        engine.register(self.CONTINUOUS, sink=CollectingSink())
        elements = [graph_element(30 * step, step) for step in range(1, 8)]
        engine.run_stream(elements)
        retained = engine.retained_elements
        assert 0 < retained <= 5
