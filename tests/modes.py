"""The explicit execution-mode matrix.

Every optimised path must produce what the denotational semantics
produce (snapshot reducibility, PAPER.md Defs. 5.8-5.11), so N modes need
one oracle — :func:`repro.seraph.semantics.continuous_run` — not N×N
cross-checks and not a rerun of the whole suite per mode.  The corpus
tests (``tests/seraph/test_continuous_conformance.py``, the Figure 1 /
Listing 5 running example) parametrise over :data:`MODES`; a mode can
only be selected here the way it can anywhere: through explicit
:class:`~repro.api.EngineConfig` fields.  The same holds for the parts an
engine may own (:data:`STACKS`): an ingress and a pool executor are
stages of the one pipeline, so every stack answers to the same oracle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro import EngineConfig, build_engine
from repro.graph.model import PropertyGraph
from repro.seraph import CollectingSink, parse_seraph
from repro.seraph.semantics import continuous_run
from repro.stream.stream import PropertyGraphStream, StreamElement
from repro.stream.window import ActiveSubstreamPolicy

#: The slow twin: every optimisation off, reference graph backend.  The
#: same six names ``benchmarks/e2e/check.py`` builds its oracle from.
SLOW_TWIN = {
    "incremental": False, "delta_eval": False, "physical_plans": False,
    "reuse_unchanged_windows": False, "vectorized": False,
    "graph_backend": "reference",
}

MODES: Dict[str, dict] = {
    "default": {},
    "slow-twin": SLOW_TWIN,
    "columnar": {"graph_backend": "columnar"},  # pruning on (derived)
    "columnar-unpruned": {"graph_backend": "columnar", "vectorized": False},
    "reference-pruned": {"vectorized": True},
    "no-delta": {"delta_eval": False},
    "interpreted": {"physical_plans": False},
}

#: The parts an engine can own.  ``offload_threshold=0`` so the pool
#: really runs: every full evaluation crosses the process boundary.
STACKS: Dict[str, dict] = {
    "plain": {},
    "pool": {"parallel_workers": 2, "offload_threshold": 0.0},
    "resilient": {"resilient": True},
    "resilient+pool": {"resilient": True, "parallel_workers": 2,
                       "offload_threshold": 0.0},
}

#: Modes that differ from the default only in graph backend / candidate
#: pruning promise the default's row *order* too, so their rendered
#: emissions are byte-identical, not merely bag-equal.
SAME_ROW_ORDER = ("default", "columnar", "columnar-unpruned",
                  "reference-pruned")


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
    with build_engine(EngineConfig(
        policy=policy, static_graph=static_graph,
        **MODES[mode], **STACKS[stack],
    )) as engine:
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
