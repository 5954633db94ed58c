"""The part of the program the frozen benchmark depends on.

``benchmarks/e2e`` may not change, so what it uses of ``repro`` is a
contract: the six ``EngineConfig`` names its slow twin is built from,
three functions it imports from ``repro.seraph.semantics``, and the
``unified_status()`` keys ``benchmarks/e2e/layers.py`` reads.  The names
are written out under ``tests/`` (the slow twin in ``tests/modes.py``),
never imported from ``benchmarks/``, so a refactor that breaks the
benchmark fails this test first.
"""

from repro import EngineConfig, build_engine
from repro.seraph.parser import parse_seraph
from repro.seraph.semantics import (
    execute_body,
    reported_interval,
    window_config,
)
from repro.stream.snapshot import snapshot_graph
from repro.stream.stream import PropertyGraphStream
from repro.stream.window import ActiveSubstreamPolicy
from repro.usecases.micromobility import (
    LISTING5_SERAPH,
    TABLE6_WINDOW,
    _t,
    figure1_stream,
)

from .modes import SLOW_TWIN

QUERY_COUNTERS = (
    "evaluations", "reused", "delta", "delta_full_refreshes",
    "assignments_retained", "assignments_recomputed", "plan_compiles",
)


def test_slow_twin_builds_and_status_carries_the_keys_the_benchmark_reads():
    engine = build_engine(EngineConfig(
        resilient=True, observability=True, **SLOW_TWIN
    ))
    engine.register(LISTING5_SERAPH)
    engine.run_stream(figure1_stream(), until=_t("15:40"))
    document = engine.unified_status()
    entry = document["engine"]["queries"]["student_trick"]
    for key in QUERY_COUNTERS:
        assert isinstance(entry[key], int), key
    assert entry["evaluations"] == 12
    for key in ("hits", "misses"):
        assert isinstance(document["engine"]["planner"][key], int), key
    for key in ("reordered", "late_dropped"):
        assert isinstance(document["resilience"]["metrics"][key], int), key
    assert document["obs"]["enabled"] is True
    assert "query.student_trick.stage.total" in \
        document["obs"]["metrics"]["histograms"]


def test_a_plain_engine_reports_no_resilience_section_or_a_null_one():
    """``layers.py`` reads ``document.get("resilience")`` and treats a
    missing or falsy section as all-zero counters."""
    document = build_engine(EngineConfig()).unified_status()
    assert not document.get("resilience")
    assert document["obs"]["enabled"] is False


def test_from_scratch_reference_calls_keep_their_signatures():
    """The three ``semantics`` functions, called the way the
    benchmark's reference evaluation calls them."""
    policy = ActiveSubstreamPolicy.TRAILING
    query = parse_seraph(LISTING5_SERAPH)
    stream = PropertyGraphStream(figure1_stream())
    instant = _t("15:40")
    window = window_config(query, query.max_within)
    graph = snapshot_graph(window.active_substream(stream, instant, policy))
    interval = reported_interval(query, instant, policy)
    table = execute_body(query, lambda _stream, _width: graph, interval)
    assert (interval.start, interval.end) == TABLE6_WINDOW
    assert sorted(record["user_id"] for record in table) == [1234, 5678]
