"""Denotational continuous-evaluation semantics (Definitions 5.8–5.11).

This module is the *reference implementation*: it evaluates a Seraph query
at one instant by literally following the paper — extract the active
substream, union it into a snapshot graph (Definition 5.5), and run the
core-Cypher pipeline over it (snapshot reducibility, Definition 5.8).  The
incremental engine in :mod:`repro.seraph.engine` must agree with it;
property tests assert that.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.cypher import ast as cypher_ast
from repro.cypher.evaluator import QueryEvaluator
from repro.graph.model import PropertyGraph
from repro.graph.table import Table
from repro.graph.temporal import TimeInstant
from repro.seraph.ast import Emit, SeraphMatch, SeraphQuery
from repro.stream.report import ReportState
from repro.stream.snapshot import snapshot_graph
from repro.stream.stream import PropertyGraphStream
from repro.stream.timeline import TimeInterval
from repro.stream.tvt import WIN_END, WIN_START, TimeAnnotatedTable
from repro.stream.window import ActiveSubstreamPolicy, WindowConfig


def window_config(query: SeraphQuery, width: int) -> WindowConfig:
    """The (ω₀, α, β) triple for one WITHIN width of a query."""
    slide = query.slide if query.slide > 0 else width
    return WindowConfig(start=query.starting_at, width=width, slide=slide)


def reported_interval(
    query: SeraphQuery,
    instant: TimeInstant,
    policy: ActiveSubstreamPolicy = ActiveSubstreamPolicy.TRAILING,
) -> TimeInterval:
    """The win_start/win_end annotation for an evaluation at ``instant``.

    Uses the widest WITHIN of the query (DESIGN.md §4.4); under TRAILING
    this is ``[ω − α_max, ω)`` as the paper's Tables 5/6 print.
    """
    config = window_config(query, query.max_within)
    window = config.active_window(instant, policy)
    if window is None:
        # Before ω₀ under the formal policy: an empty interval at ω.
        return TimeInterval(instant, instant)
    return window


def terminal_clause(query: SeraphQuery) -> cypher_ast.Return:
    """The pipeline's terminal projection: RETURN, or EMIT read as one."""
    if query.final_return is not None:
        return query.final_return
    return cypher_ast.Return(items=query.emit.items, star=query.emit.star)


def execute_body(
    query: SeraphQuery,
    graph_for: Callable[[str, int], PropertyGraph],
    interval: TimeInterval,
    expr_cache: Optional[dict] = None,
) -> Table:
    """Run the clause pipeline with per-MATCH snapshot graphs.

    ``graph_for(stream, width)`` supplies the snapshot graph for each
    (stream, WITHIN width) pair; the reserved ``win_start``/``win_end``
    names are injected into every expression scope (Definition 5.6).
    ``expr_cache`` (optional) is a compiled-expression cache shared across
    evaluations of the same query — see
    :func:`repro.cypher.expressions.compile_expression`.
    """
    base_scope = {WIN_START: interval.start, WIN_END: interval.end}
    evaluators: Dict[tuple, QueryEvaluator] = {}

    def evaluator_for(stream: str, width: int) -> QueryEvaluator:
        key = (stream, width)
        if key not in evaluators:
            evaluators[key] = QueryEvaluator(
                graph_for(stream, width),
                base_scope=base_scope,
                compile_cache=expr_cache,
            )
        return evaluators[key]

    default_key = query.window_keys()[-1]
    table = Table.unit()
    for clause in query.body:
        if isinstance(clause, SeraphMatch):
            default_key = (clause.stream_name, clause.within)
            table = evaluator_for(*default_key).apply_clause(clause.match, table)
        else:
            table = evaluator_for(*default_key).apply_clause(clause, table)
    return evaluator_for(*default_key).apply_clause(terminal_clause(query), table)


StreamsLike = "PropertyGraphStream | Dict[str, PropertyGraphStream]"


def _as_stream_map(streams) -> Dict[str, PropertyGraphStream]:
    from repro.seraph.ast import DEFAULT_STREAM

    if isinstance(streams, PropertyGraphStream):
        return {DEFAULT_STREAM: streams}
    return dict(streams)


def evaluate_at(
    query: SeraphQuery,
    streams,
    instant: TimeInstant,
    policy: ActiveSubstreamPolicy = ActiveSubstreamPolicy.TRAILING,
    static_graph: Optional[PropertyGraph] = None,
) -> TimeAnnotatedTable:
    """One evaluation by the book: ``CQ(S)@ω = Q(snapshot(S, ω))``.

    ``streams`` is a single :class:`PropertyGraphStream` (bound to the
    default stream) or a name→stream mapping for multi-stream queries.
    ``static_graph`` (future work iii) is unioned into every snapshot.
    Report policies are *not* applied here — this is the full current
    answer (the SNAPSHOT view); :func:`continuous_run` layers policies.
    """
    from repro.graph.union import union as graph_union

    stream_map = _as_stream_map(streams)

    def graph_for(stream_name: str, width: int) -> PropertyGraph:
        config = window_config(query, width)
        stream = stream_map.get(stream_name)
        if stream is None:
            elements = []
        else:
            elements = config.active_substream(stream, instant, policy)
        graph = snapshot_graph(elements)
        if static_graph is not None:
            graph = graph_union(static_graph, graph)
        return graph

    interval = reported_interval(query, instant, policy)
    table = execute_body(query, graph_for, interval)
    return TimeAnnotatedTable(table=table, interval=interval)


def evaluation_instants(
    query: SeraphQuery, until: TimeInstant
) -> List[TimeInstant]:
    """ET ∩ [ω₀, until] (Definition 5.10)."""
    config = window_config(query, query.max_within)
    return list(config.evaluation_instants(until))


def continuous_run(
    query: SeraphQuery,
    streams,
    until: TimeInstant,
    policy: ActiveSubstreamPolicy = ActiveSubstreamPolicy.TRAILING,
    static_graph: Optional[PropertyGraph] = None,
) -> List[TimeAnnotatedTable]:
    """The denotational continuous run: evaluate at every ET instant up to
    ``until`` and apply the query's report policy.

    For a RETURN-terminal query this produces exactly one entry (the first
    evaluation), per Section 5.3.
    """
    if not query.is_continuous:
        first = query.starting_at
        if first > until:
            return []
        return [evaluate_at(query, streams, first, policy, static_graph)]
    report = ReportState(query.emit.policy)
    out: List[TimeAnnotatedTable] = []
    for instant in evaluation_instants(query, until):
        full = evaluate_at(query, streams, instant, policy, static_graph)
        emitted = report.apply(full.table)
        out.append(TimeAnnotatedTable(table=emitted, interval=full.interval))
    return out
