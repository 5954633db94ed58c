"""The explicit execution-mode matrix.

Every optimised path must produce what the denotational semantics
produce (snapshot reducibility, PAPER.md Defs. 5.8-5.11), so the two
behaviours — production and its reference twin — answer to one oracle,
:func:`repro.seraph.semantics.continuous_run`, not to each other and not
to a rerun of the whole suite per mode.  The corpus
tests (``tests/seraph/test_continuous_conformance.py``, the Figure 1 /
Listing 5 running example) parametrise over :data:`MODES`; a mode can
only be selected here the way it can anywhere: through explicit
:class:`~repro.api.EngineConfig` fields.  The same holds for the part an
engine may own (:data:`STACKS`): an ingress is a stage of the one
pipeline, so every stack answers to the same oracle.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Optional, Sequence

from repro import EngineConfig, build_engine
from repro.graph.model import PropertyGraph
from repro.graph.union import union as graph_union
from repro.seraph import CollectingSink, parse_seraph
from repro.seraph.ast import SeraphMatch
from repro.seraph.semantics import (
    continuous_run,
    evaluation_instants,
    reported_interval,
    terminal_clause,
    window_config,
)
from repro.stream.report import ReportState
from repro.stream.snapshot import snapshot_graph
from repro.stream.stream import PropertyGraphStream, StreamElement
from repro.stream.tvt import WIN_END, WIN_START
from repro.stream.window import ActiveSubstreamPolicy

from . import oracle

#: The slow twin: every optimisation off.  The same six names
#: ``benchmarks/e2e/check.py`` builds its oracle from; exactly these
#: values select the reference engine, every name at its default the
#: production one, and anything else is an ``EngineModeError``.
SLOW_TWIN = {
    "incremental": False, "delta_eval": False, "physical_plans": False,
    "reuse_unchanged_windows": False, "vectorized": False,
    "graph_backend": "reference",
}

MODES: Dict[str, dict] = {
    "production": {},
    "reference": SLOW_TWIN,
}

#: The parts an engine can own.
STACKS: Dict[str, dict] = {
    "plain": {},
    "resilient": {"resilient": True},
}


_FLAGS = ("incremental", "reuse_unchanged_windows", "delta_eval",
          "physical_plans")

#: Every settable value of the six mode names: the four flags on or off,
#: either graph backend name, and the ``vectorized`` tri-state — 96
#: selections.  Every reader of the names (``EngineConfig``, the
#: service's JSON config, checkpoint restore) answers each one as
#: :func:`expected_mode` says.
MODE_SELECTIONS: List[dict] = [
    {**dict(zip(_FLAGS, flags)), "graph_backend": backend,
     "vectorized": vectorized}
    for flags in product((True, False), repeat=len(_FLAGS))
    for backend in ("reference", "columnar")
    for vectorized in (None, False, True)
]


def selection_id(selection: dict) -> str:
    return "-".join(
        [f"{name}={int(selection[name])}" for name in _FLAGS]
        + [selection["graph_backend"], f"vectorized={selection['vectorized']}"]
    )


def expected_mode(selection: dict) -> Optional[str]:
    """``"production"`` when every flag is on, ``"reference"`` when every
    flag is off — both only on the reference graph without pruning — and
    ``None`` (a typed error) for anything else."""
    if selection["graph_backend"] != "reference" or selection["vectorized"]:
        return None
    flags = {selection[name] for name in _FLAGS}
    return {frozenset([True]): "production",
            frozenset([False]): "reference"}.get(frozenset(flags))


def assert_names_the_offending_fields(selection: dict, message: str) -> None:
    """The error names every field of the nearer allowed form that the
    selection misses, and says why when a removed selection is among
    them."""
    vectorized = bool(selection["vectorized"])
    misses = [
        [name for name in _FLAGS if selection[name] is not flag]
        + (["graph_backend"] if selection["graph_backend"] != "reference"
           else [])
        + (["vectorized"] if vectorized else [])
        for flag in (True, False)
    ]
    nearest = min(map(len, misses))
    assert any(
        all(f"{name}=" in message for name in missed)
        for missed in misses if len(missed) == nearest
    ), message
    removed = selection["graph_backend"] == "columnar" or vectorized
    assert ("was removed" in message) is removed, message


def run_mode(
    mode: str,
    query_text: str,
    elements: Sequence[StreamElement],
    until: int,
    policy: ActiveSubstreamPolicy = ActiveSubstreamPolicy.TRAILING,
    static_graph: Optional[PropertyGraph] = None,
    stack: str = "plain",
) -> CollectingSink:
    """One continuous run of ``query_text`` under ``MODES[mode]`` on an
    engine owning the parts ``STACKS[stack]`` names."""
    engine = build_engine(EngineConfig(
        policy=policy, static_graph=static_graph,
        **MODES[mode], **STACKS[stack],
    ))
    sink = CollectingSink()
    engine.register(query_text, sink=sink)
    engine.run_stream(elements, until=until)
    return sink


def assert_equals_denotation(
    sink: CollectingSink,
    query_text: str,
    elements: Sequence[StreamElement],
    until: int,
    policy: ActiveSubstreamPolicy = ActiveSubstreamPolicy.TRAILING,
    static_graph: Optional[PropertyGraph] = None,
) -> None:
    """Every emission is bag-equal to the from-scratch evaluation of the
    same instant, with the same reported window."""
    reference = continuous_run(
        parse_seraph(query_text), PropertyGraphStream(elements), until,
        policy, static_graph,
    )
    assert len(sink.emissions) == len(reference)
    for emission, expected in zip(sink.emissions, reference):
        assert emission.table.interval == expected.interval
        assert emission.table.bag_equals(expected), emission.instant


def renders(sink: CollectingSink) -> List[str]:
    return [emission.render() for emission in sink.emissions]


def brute_force_run(text, elements, until, static_graph=None):
    """The continuous run with every body evaluated by the oracle
    (:mod:`tests.oracle`): each ET instant's window snapshots (the
    static graph unioned in), the body's clauses by nested loops (a
    clause after a MATCH reads that MATCH's window, as
    ``semantics.execute_body`` has it), then the report policy."""
    query = parse_seraph(text)
    stream = PropertyGraphStream(elements)
    report = ReportState(query.emit.policy)
    out = {}
    for instant in evaluation_instants(query, until):
        def snapshot(width, instant=instant):
            graph = snapshot_graph(window_config(query, width)
                                   .active_substream(stream, instant))
            if static_graph is not None:
                graph = graph_union(static_graph, graph)
            return graph

        graph = snapshot(query.window_keys()[-1][1])
        steps = []
        for clause in query.body:
            if isinstance(clause, SeraphMatch):
                graph = snapshot(clause.within)
                clause = clause.match
            steps.append((clause, graph))
        interval = reported_interval(query, instant)
        table = oracle.run_clauses(
            steps + [(terminal_clause(query), graph)],
            {WIN_START: interval.start, WIN_END: interval.end},
        )
        out[instant] = report.apply(table)
    return out


def assert_equals_oracle(
    sink: CollectingSink,
    query_text: str,
    elements: Sequence[StreamElement],
    until: int,
    static_graph: Optional[PropertyGraph] = None,
) -> None:
    """The run fired at the oracle's instants, and every emission is
    bag-equal to :func:`brute_force_run`'s table of the same instant."""
    expected = brute_force_run(query_text, elements, until, static_graph)
    assert [emission.instant for emission in sink.emissions] \
        == list(expected)
    for emission in sink.emissions:
        assert emission.table.table.bag_equals(
            expected[emission.instant]
        ), emission.instant
