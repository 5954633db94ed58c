"""Tests for the span tracer: both parenting modes, stitching, limits."""

import pytest

from repro.obs.trace import NOOP_SPAN, NOOP_TRACER, NoopTracer, Span, Tracer


class FakeClock:
    """Deterministic perf_counter stand-in (advance manually)."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def tick(self, seconds=1.0):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock=clock)


class TestExplicitParenting:
    def test_start_without_parent_is_a_root(self, tracer):
        span = tracer.start("evaluate", query="q")
        assert tracer.roots == [span]
        assert span.tags == {"query": "q"}

    def test_start_with_parent_nests(self, tracer):
        parent = tracer.start("evaluate")
        child = tracer.start("report", parent=parent)
        assert parent.children == [child]
        assert tracer.roots == [parent]

    def test_start_does_not_touch_the_ambient_stack(self, tracer):
        tracer.start("evaluate")
        with tracer.span("ingest") as ambient:
            # A start() under an open span() block stays explicit.
            explicit = tracer.start("report")
            assert explicit in tracer.roots
            assert explicit not in ambient.children

    def test_finish_is_idempotent(self, tracer, clock):
        span = tracer.start("evaluate")
        clock.tick(2.0)
        span.finish()
        first_end = span.end
        clock.tick(5.0)
        span.finish()
        assert span.end == first_end
        assert span.duration_seconds == 2.0

    def test_open_span_duration_reads_the_clock(self, tracer, clock):
        span = tracer.start("evaluate")
        clock.tick(3.0)
        assert span.duration_seconds == 3.0
        assert span.end is None


class TestAmbientParenting:
    def test_nested_blocks_build_a_tree(self, tracer):
        with tracer.span("sink") as outer:
            with tracer.span("sink_attempt", attempt=1) as inner:
                pass
        assert tracer.roots == [outer]
        assert outer.children == [inner]
        assert inner.end is not None

    def test_explicit_parent_overrides_the_stack(self, tracer):
        evaluate = tracer.start("evaluate")
        with tracer.span("ingest"):
            with tracer.span("sink", parent=evaluate) as sink:
                pass
        assert sink in evaluate.children

    def test_parent_none_forces_a_root(self, tracer):
        with tracer.span("outer"):
            with tracer.span("ingest", parent=None) as root:
                pass
        assert root in tracer.roots

    def test_mismatched_exit_unwinds_defensively(self, tracer):
        outer = tracer.span("outer").__enter__()
        tracer.span("inner").__enter__()
        outer.__exit__(None, None, None)  # inner never exited
        assert tracer._stack == []

    def test_exception_still_closes_the_span(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("sink") as span:
                raise RuntimeError("sink down")
        assert span.end is not None


class TestAddCompleted:
    def test_fragment_is_placed_relative_to_its_parent(self, tracer, clock):
        parent = tracer.start("evaluate")
        clock.tick(10.0)
        child = tracer.add_completed(
            "dataflow_stage", 0.5, parent=parent, start_offset=2.0, pid=7
        )
        assert child.start == parent.start + 2.0
        assert child.end == child.start + 2.5 - 2.0
        assert child.duration_seconds == 0.5
        assert child.tags == {"pid": 7}
        assert parent.children == [child]

    def test_root_fragment_is_placed_relative_to_the_epoch(
        self, tracer, clock
    ):
        epoch = clock.now
        clock.tick(4.0)
        span = tracer.add_completed("window_advance", 0.25, start_offset=1.5)
        assert span.start == epoch + 1.5
        assert span.duration_seconds == 0.25
        assert span in tracer.roots


class TestLimitAndReset:
    def test_past_the_limit_spans_become_noop_and_count_dropped(self, clock):
        tracer = Tracer(clock=clock, limit=2)
        first = tracer.start("a")
        second = tracer.start("b")
        third = tracer.start("c")
        fourth = tracer.add_completed("d", 1.0)
        assert isinstance(first, Span) and isinstance(second, Span)
        assert third is NOOP_SPAN
        assert fourth is NOOP_SPAN
        assert tracer.created == 2
        assert tracer.dropped == 2
        assert len(tracer.roots) == 2

    def test_children_of_dropped_spans_become_roots_safely(self, clock):
        tracer = Tracer(clock=clock, limit=1)
        dropped_parent = tracer.start("a")  # consumes the only slot? no:
        # first span fits; the second is dropped, then reset frees slots.
        assert tracer.start("b") is NOOP_SPAN
        tracer.reset()
        child = tracer.start("c", parent=NOOP_SPAN)
        assert child in tracer.roots
        assert dropped_parent not in tracer.roots

    def test_reset_clears_spans_counters_and_epoch(self, tracer, clock):
        tracer.start("a")
        with tracer.span("b"):
            pass
        clock.tick(9.0)
        tracer.reset()
        assert tracer.roots == []
        assert tracer.created == 0
        assert tracer.dropped == 0
        assert tracer._epoch == clock.now


class TestIntrospection:
    def test_to_dicts_is_json_safe_and_epoch_relative(self, tracer, clock):
        root = tracer.start("evaluate", query="q")
        clock.tick(1.0)
        with tracer.span("report", parent=root):
            clock.tick(0.5)
        clock.tick(0.5)
        root.finish()
        (document,) = tracer.to_dicts()
        assert document["name"] == "evaluate"
        assert document["start"] == 0.0
        assert document["duration"] == 2.0
        assert document["tags"] == {"query": "q"}
        (child,) = document["children"]
        assert child["name"] == "report"
        assert child["start"] == 1.0
        assert child["duration"] == 0.5

    def test_find_walks_the_forest_preorder(self, tracer):
        first = tracer.start("evaluate")
        nested = tracer.start("sink", parent=first)
        deep = tracer.start("sink", parent=nested)
        second = tracer.start("evaluate")
        assert tracer.find("sink") == [nested, deep]
        assert tracer.find("evaluate") == [first, second]
        assert tracer.find("missing") == []

    def test_repr_shows_state(self, tracer):
        span = tracer.start("evaluate")
        assert "open" in repr(span)
        span.finish()
        assert "open" not in repr(span)


class TestNoopTracer:
    def test_every_creation_path_returns_the_shared_noop_span(self):
        assert NOOP_TRACER.start("a") is NOOP_SPAN
        assert NOOP_TRACER.span("b") is NOOP_SPAN
        assert NOOP_TRACER.add_completed("c", 1.0) is NOOP_SPAN

    def test_disabled_flag_and_empty_introspection(self):
        assert NOOP_TRACER.enabled is False
        assert Tracer.enabled is True
        assert NOOP_TRACER.to_dicts() == []
        assert NOOP_TRACER.created == 0
        NOOP_TRACER.reset()  # must not raise
        assert isinstance(NOOP_TRACER, NoopTracer)

    def test_noop_span_supports_the_full_span_surface(self):
        with NOOP_SPAN as span:
            assert span is NOOP_SPAN
        assert NOOP_SPAN.annotate(path="x") is NOOP_SPAN
        assert NOOP_SPAN.finish() is NOOP_SPAN
        assert NOOP_SPAN.duration_seconds == 0.0
        assert NOOP_SPAN.children == ()
        assert NOOP_SPAN.tags == {}
