"""Tests for the metrics registry: instruments, reservoir, absorb."""

import pytest

from repro.errors import MetricsError
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_increments_accumulate(self):
        counter = Counter("engine.ingested")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_decrement_raises(self):
        counter = Counter("engine.ingested")
        with pytest.raises(MetricsError, match="cannot decrease"):
            counter.inc(-1)


class TestGauge:
    def test_last_write_wins(self):
        gauge = Gauge("buffer.pending")
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.value == 1.5


class TestHistogram:
    def test_exact_aggregates(self):
        hist = Histogram("latency")
        for value in (0.3, 0.1, 0.2):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == pytest.approx(0.6)
        assert hist.min == 0.1
        assert hist.max == 0.3
        assert hist.mean == pytest.approx(0.2)

    def test_empty_snapshot_is_all_zeros(self):
        snapshot = Histogram("latency").snapshot()
        assert snapshot == {
            "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }

    def test_ring_buffer_keeps_the_newest_observations(self):
        hist = Histogram("latency", reservoir=3)
        for value in (10.0, 20.0, 30.0, 40.0):
            hist.observe(value)
        # 40.0 overwrote 10.0; exact min/max still cover everything.
        assert sorted(hist.samples()) == [20.0, 30.0, 40.0]
        assert hist.min == 10.0
        assert hist.count == 4
        assert hist.percentile(0.5) == 30.0

    def test_nearest_rank_percentiles(self):
        hist = Histogram("latency")
        for value in range(1, 101):  # 1..100
            hist.observe(float(value))
        assert hist.percentile(0.50) == 50.0
        assert hist.percentile(0.95) == 95.0
        assert hist.percentile(0.99) == 99.0
        assert hist.percentile(1.0) == 100.0

    def test_single_observation_is_every_percentile(self):
        hist = Histogram("latency")
        hist.observe(7.0)
        for p in (0.01, 0.5, 1.0):
            assert hist.percentile(p) == 7.0

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, 2])
    def test_out_of_range_percentile_raises(self, bad):
        hist = Histogram("latency")
        hist.observe(1.0)
        with pytest.raises(MetricsError, match="percentile must be in"):
            hist.percentile(bad)

    def test_empty_percentile_is_zero(self):
        assert Histogram("latency").percentile(0.95) == 0.0

    def test_reservoir_must_hold_something(self):
        with pytest.raises(MetricsError, match="reservoir"):
            Histogram("latency", reservoir=0)


class TestMetricsRegistry:
    def test_same_name_returns_the_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("engine.ingested")
        with pytest.raises(MetricsError,
                           match="is a counter, not a gauge"):
            registry.gauge("engine.ingested")
        with pytest.raises(MetricsError,
                           match="is a counter, not a histogram"):
            registry.histogram("engine.ingested")

    def test_write_shorthands(self):
        registry = MetricsRegistry()
        registry.inc("hits")
        registry.inc("hits", 2)
        registry.set("depth", 4.0)
        registry.observe("latency", 0.5)
        assert registry.counter("hits").value == 3
        assert registry.gauge("depth").value == 4.0
        assert registry.histogram("latency").count == 1

    def test_get_returns_none_for_unknown_names(self):
        registry = MetricsRegistry()
        assert registry.get("missing") is None
        registry.inc("hits")
        assert registry.get("hits").value == 1

    def test_histograms_inherit_the_registry_reservoir(self):
        registry = MetricsRegistry(reservoir=2)
        hist = registry.histogram("latency")
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        assert sorted(hist.samples()) == [2.0, 3.0]

    def test_len_and_contains(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.set("b", 1)
        assert len(registry) == 2
        assert "a" in registry
        assert "missing" not in registry


class TestLedgerReads:
    """What ``status()`` is built from: reads by name, by namespace and
    by prefix, and forgetting a deregistered query's instruments."""

    def test_value_reads_counters_and_gauges_and_is_zero_before_use(self):
        registry = MetricsRegistry()
        registry.inc("resilience.reordered", 3)
        registry.set("resilience.reorder_depth", 2)
        assert registry.value("resilience.reordered") == 3
        assert registry.value("resilience.reorder_depth") == 2
        assert registry.value("resilience.never_bumped") == 0
        assert "resilience.never_bumped" not in registry

    def test_values_reads_a_namespace_in_the_order_asked(self):
        registry = MetricsRegistry()
        registry.inc("resilience.retried")
        assert registry.values(
            "resilience", ("reordered", "retried")
        ) == {"reordered": 0, "retried": 1}
        assert list(registry.values("resilience", ("b", "a"))) == ["b", "a"]

    def test_under_yields_suffixes_sorted(self):
        registry = MetricsRegistry()
        registry.observe("query.q7.stage.total", 0.5)
        registry.observe("query.q3.stage.total", 0.25)
        registry.inc("query.evaluations")
        found = list(registry.under("query.q"))
        assert [name for name, _ in found] == [
            "3.stage.total", "7.stage.total"]
        assert [hist.total for _, hist in found] == [0.25, 0.5]

    def test_discard_forgets_a_prefix_and_nothing_else(self):
        registry = MetricsRegistry()
        registry.inc("query.q.evaluations", 4)
        registry.observe("query.q.stage.total", 0.1)
        registry.inc("query.q2.evaluations")
        registry.discard("query.q.")
        assert registry.value("query.q.evaluations") == 0
        assert registry.get("query.q.stage.total") is None
        assert registry.value("query.q2.evaluations") == 1


class TestSnapshot:
    def test_sections_and_sorted_names(self):
        registry = MetricsRegistry()
        registry.observe("z.latency", 0.5)
        registry.inc("b.hits")
        registry.set("a.depth", 2)
        registry.inc("a.hits")
        snapshot = registry.snapshot()
        assert list(snapshot) == ["counters", "gauges", "histograms"]
        assert list(snapshot["counters"]) == ["a.hits", "b.hits"]
        assert snapshot["gauges"] == {"a.depth": 2}
        assert snapshot["histograms"]["z.latency"]["count"] == 1
