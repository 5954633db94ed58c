"""EXPLAIN-style introspection for registered Seraph queries.

:func:`explain` produces a human-readable execution outline: windows
(per stream/width), evaluation cadence, report policy, clause pipeline,
and which engine optimizations apply — the kind of plan surface the
paper's Section 6 optimization work would need.

:func:`explain_analyze` appends *observed* per-stage timings to that
outline, read from the engine's metrics registry (the stage histograms
:meth:`repro.obs.Observability.record_stage` fills during evaluation),
plus the compiled physical operator tree with the cumulative rows each
operator produced (:mod:`repro.cypher.physical`).
"""

from __future__ import annotations

from typing import List, Union

from repro.cypher import ast as cypher_ast
from repro.errors import EngineError
from repro.graph.temporal import format_datetime, format_duration
from repro.seraph.ast import SeraphMatch, SeraphQuery
from repro.seraph.parser import parse_seraph


def _indent(text: str, prefix: str) -> List[str]:
    return [prefix + line for line in text.splitlines()]


def explain(query: Union[str, SeraphQuery], graph=None) -> str:
    """Render an execution outline for a Seraph query.

    With ``graph`` (a :class:`~repro.graph.model.PropertyGraph` or
    :class:`~repro.cypher.planner.GraphStatistics` standing in for every
    window), the outline also shows the physical operator tree the
    compiler produces under those statistics."""
    if isinstance(query, str):
        query = parse_seraph(query)
    lines: List[str] = []
    lines.append(f"ContinuousQuery {query.name}")
    lines.append(f"  starting at : {format_datetime(query.starting_at)}")
    if query.is_continuous:
        lines.append(
            f"  cadence     : every {format_duration(query.slide)} "
            f"(ET = ω0 + i·β)"
        )
        lines.append(f"  report      : {query.emit.policy.value}")
        if query.emits_into is not None:
            lines.append(
                f"  emits into  : stream {query.emits_into!r} "
                "(rows materialize as derived elements)"
            )
    else:
        lines.append("  cadence     : one-shot (RETURN terminal)")
    lines.append("  windows     :")
    for stream_name, width in query.window_keys():
        lines.append(
            f"    - stream {stream_name!r}: width {format_duration(width)}"
        )
    lines.append(
        "  win bounds  : "
        + ("referenced (reuse optimization off)"
           if query.references_window_bounds()
           else "not referenced (unchanged-window reuse applies)")
    )
    lines.append("  pipeline    :")
    step = 0
    for clause in query.body:
        step += 1
        if isinstance(clause, SeraphMatch):
            kind = "OptionalMatch" if clause.match.optional else "Match"
            detail = clause.match.pattern.render()
            lines.append(
                f"    {step}. {kind}[{clause.stream_name}/"
                f"{format_duration(clause.within)}] {detail}"
            )
            if clause.match.where is not None:
                step += 1
                lines.append(
                    f"    {step}. Filter {clause.match.where.render()}"
                )
        elif isinstance(clause, cypher_ast.With):
            lines.append(f"    {step}. Project {clause.render()[5:]}")
        elif isinstance(clause, cypher_ast.Unwind):
            lines.append(f"    {step}. Unwind {clause.render()[7:]}")
        else:
            lines.append(f"    {step}. {clause.render()}")
    step += 1
    if query.emit is not None:
        items = ", ".join(item.render() for item in query.emit.items)
        if query.emit.star:
            items = "*" + (", " + items if items else "")
        lines.append(f"    {step}. Emit {items}")
    else:
        lines.append(f"    {step}. {query.final_return.render()}")
    if graph is not None:
        from repro.cypher.physical import compile_query, render_plan

        lines.append("  physical    :")
        plan = compile_query(query, lambda _stream, _width: graph)
        lines.extend(_indent(render_plan(plan), "    "))
    return "\n".join(lines)


def explain_analyze(engine, query_name: str) -> str:
    """EXPLAIN plus observed stage timings (``EXPLAIN ANALYZE``).

    ``engine`` ran ``query_name`` with observability enabled; each stage
    that fired at least once gets a ``n/mean/p95/max`` line.  Raises
    :class:`~repro.errors.EngineError` for an unregistered query; an
    engine without observability gets the plain plan plus a hint.
    """
    from repro.obs import STAGES, stage_metric
    from repro.obs.format import render_histogram

    from repro.cypher.physical import render_plan

    if query_name not in engine.query_names:
        raise EngineError(f"query {query_name!r} is not registered")
    registered = engine.registered(query_name)
    lines = [explain(registered.query)]
    plan = registered.physical_plan
    if plan is not None:
        lines.append(
            f"  physical    : "
            f"({registered.counters['plan_compiles'].value} compiles, "
            f"band {len(plan.band)} windows)"
        )
        lines.extend(_indent(render_plan(plan, registered.profile), "    "))
    obs = engine.obs
    if not obs.enabled:
        lines.append(
            "  analyze     : observability disabled "
            "(build with EngineConfig(observability=True))"
        )
        return "\n".join(lines)
    lines.append("  analyze     :")
    observed = 0
    for stage in STAGES:
        instrument = obs.registry.get(stage_metric(query_name, stage))
        if instrument is None or instrument.count == 0:
            continue
        observed += 1
        lines.append(
            "    " + render_histogram(stage, instrument.snapshot())
        )
    if not observed:
        lines.append("    (no evaluations observed yet)")
    return "\n".join(lines)


def explain_dataflow(engine) -> str:
    """Render the engine's dataflow DAG in topological (stage) order.

    Each query is shown under its scheduling stage with the streams it
    reads and (for ``EMIT ... INTO`` producers) the derived stream it
    feeds, followed by every producer→consumer edge annotated with the
    elements emitted into and consumed from its stream so far.
    """
    status = engine.dataflow_status()
    lines = ["DataflowDAG"]
    if not status["order"]:
        lines.append("  (no registered queries)")
        return "\n".join(lines)
    streams = status["streams"]
    stages = status["stages"]
    current = None
    for name in status["order"]:
        stage = stages[name]
        if stage != current:
            lines.append(f"  stage {stage}:")
            current = stage
        query = engine.registered(name).query
        reads = ", ".join(query.stream_names())
        produced = query.emits_into if query.is_continuous else None
        suffix = ""
        if produced is not None:
            cursor = streams.get(produced, {}).get("cursor", 0)
            suffix = f" -> INTO {produced} ({cursor} elements)"
        lines.append(f"    - {name} [reads {reads}]{suffix}")
    lines.append("  edges:")
    if not status["edges"]:
        lines.append("    (none — every query reads external streams only)")
    for edge in status["edges"]:
        lines.append(
            f"    {edge['producer']} -[{edge['stream']}]-> "
            f"{edge['consumer']} (emitted {edge['emitted']}, "
            f"consumed {edge['consumed']})"
        )
    return "\n".join(lines)
