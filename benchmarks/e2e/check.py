"""Is what the run emitted what the paper says it should emit?

Two checks, both on the canonical ``emission_json`` strings a run
produced (in-process sink or SSE frame alike):

* **Snapshot reducibility, sampled** (every run, any seed): at every
  ``stride``-th evaluation instant the emission must be bag-equal to
  the reference semantics evaluated from scratch — the active substream
  unioned into a snapshot graph, the interpreted Cypher pipeline over
  it, the report policy against the previous instant's full result
  (PAPER.md Defs. 5.8-5.11; :mod:`repro.seraph.semantics`).  Under late
  and out-of-order arrival the reference runs over the surviving
  elements in instant order.  The replays are timed, which is where the
  ``stream.snapshot_rebuild_s`` / ``cypher.oneshot_match_s`` layer rows
  and the input-shape record come from.
* **Digest** (committed seeds): the SHA-256 over the whole emission
  sequence must equal the one ``--regen-expected`` recorded from the
  slow-twin engine configuration under ``expected/``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Dict, List, Optional, Sequence

from repro import EngineConfig, build_engine
from repro.seraph.parser import parse_seraph
from repro.seraph.semantics import (
    execute_body,
    reported_interval,
    window_config,
)
from repro.seraph.sinks import CollectingSink, Emission
from repro.service.sse import emission_document, emission_json
from repro.stream.report import ReportState
from repro.stream.snapshot import snapshot_graph
from repro.stream.stream import PropertyGraphStream, StreamElement
from repro.stream.tvt import TimeAnnotatedTable
from repro.stream.window import ActiveSubstreamPolicy

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "expected")

#: The slow twin: every optimisation off, reference graph backend.
SLOW_TWIN = {
    "incremental": False, "delta_eval": False, "physical_plans": False,
    "reuse_unchanged_windows": False, "vectorized": False,
    "graph_backend": "reference",
}

POLICY = ActiveSubstreamPolicy.TRAILING


class Reference:
    """From-scratch evaluation of one query over one recorded stream."""

    def __init__(self, query_text: str, elements: Sequence[StreamElement]):
        self.query = parse_seraph(query_text)
        self.stream = PropertyGraphStream(elements)
        self.window = window_config(self.query, self.query.max_within)
        self.snapshot_s = 0.0
        self.match_s = 0.0
        self.replays = 0
        self.elements = 0
        self.nodes = 0
        self.rels = 0

    def _full(self, instant: int):
        t0 = time.perf_counter()
        active = self.window.active_substream(self.stream, instant, POLICY)
        graph = snapshot_graph(active)
        t1 = time.perf_counter()
        interval = reported_interval(self.query, instant, POLICY)
        table = execute_body(self.query, lambda _s, _w: graph, interval)
        t2 = time.perf_counter()
        return table, interval, (t1 - t0, t2 - t1, len(active), graph)

    def document(self, instant: int) -> Dict[str, object]:
        """The emission the semantics prescribe for ``instant``."""
        report = ReportState(self.query.emit.policy)
        previous = instant - self.query.slide
        if previous >= self.query.starting_at:
            report.apply(self._full(previous)[0])
        table, interval, (snap_s, match_s, count, graph) = self._full(instant)
        self.snapshot_s += snap_s
        self.match_s += match_s
        self.replays += 1
        self.elements += count
        self.nodes += graph.order
        self.rels += graph.size
        return emission_document(Emission(
            self.query.name, instant,
            TimeAnnotatedTable(table=report.apply(table), interval=interval),
        ))

    def rows(self, ticks: int) -> Dict[str, float]:
        """Layer rows from the replays.  The from-scratch costs are per
        tick, scaled to ``ticks`` so they read directly against the
        engine's ``stage.snapshot_build_s`` / ``stage.match_*_s``."""
        replays = max(1, self.replays)
        return {
            "stream.snapshot_rebuild_s": self.snapshot_s / replays * ticks,
            "cypher.oneshot_match_s": self.match_s / replays * ticks,
            "stream.window_elements_mean": self.elements / replays,
            "graph.snapshot_nodes_mean": self.nodes / replays,
            "graph.snapshot_rels_mean": self.rels / replays,
        }


def _bag(document: Dict[str, object]) -> Dict[str, object]:
    rows = sorted(json.dumps(row, sort_keys=True) for row in document["rows"])
    return {**document, "rows": rows}


def sampled_mismatches(
    reference: Reference, emitted: Dict[int, str], stride: int
) -> List[int]:
    """Instants (every ``stride``-th emitted one) that disagree with the
    reference.  Row order is not compared: the semantics define a bag."""
    bad = []
    for instant in sorted(emitted)[stride - 1::stride]:
        if _bag(json.loads(emitted[instant])) != _bag(reference.document(instant)):
            bad.append(instant)
    return bad


def stride_for(emissions: int) -> int:
    """Every 10th tick, thinned so one run replays at most ~60 instants."""
    return max(10, emissions // 60)


def digest(emissions: Sequence[str]) -> str:
    """SHA-256 over the emission sequence, each emission as a bag: the
    slow twin returns the same rows as the production path in another
    order (``incremental`` and ``physical_plans`` both reorder them), and
    the semantics define no order within one emission."""
    sha = hashlib.sha256()
    for text in emissions:
        canonical = json.dumps(_bag(json.loads(text)), sort_keys=True)
        sha.update(canonical.encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()


def verify(workload: str, seed: int, reference: Reference,
           emitted: Dict[int, str], in_order: Sequence[str],
           complete: bool) -> Dict[str, object]:
    """Both checks over one run's emissions (``emitted`` by instant,
    ``in_order`` as a sequence).  ``complete`` is False when the
    deadline cut the run short of the stream the digest was taken on."""
    bad = sampled_mismatches(reference, emitted, stride_for(len(emitted)))
    sha = digest(in_order)
    want = expected_digest(workload, seed, len(in_order)) if complete else None
    return {
        "emissions": len(in_order), "sha256": sha,
        "digest": "none" if want is None
        else "match" if want == sha else "MISMATCH",
        "sampled_instants": reference.replays, "sampled_mismatches": bad,
        "deadline_cut": not complete,
        "wrong": bool(bad) or (want is not None and want != sha),
    }


def _expected_path(workload: str) -> str:
    return os.path.join(EXPECTED_DIR, f"{workload}.json")


def _load(workload: str) -> Dict[str, str]:
    try:
        with open(_expected_path(workload), "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def expected_digest(workload: str, seed: int, count: int) -> Optional[str]:
    """The committed digest for this (seed, emission count), if any.

    A run cut short by its deadline, or at another ``--scale``, emits a
    different count and is covered by the sampled check alone.
    """
    return _load(workload).get(f"{seed}/{count}")


def record_digest(workload: str, seed: int, count: int, value: str) -> None:
    table = _load(workload)
    table[f"{seed}/{count}"] = value
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    with open(_expected_path(workload), "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


def regenerate(workload, seed: int, scale: float) -> None:
    """Record the slow twin's digest for (workload, seed, scale).

    The twin sees what the semantics say the engine should have seen:
    the in-order stream, minus the too-late arrivals for ``pole_late``.
    Served workloads share it — their frames must equal these bytes.
    """
    from .workloads import displace, survivors

    elements = workload.generate(seed, workload.sized(scale))
    if workload.late:
        elements = survivors(displace(elements, seed),
                             workload.engine["allowed_lateness"])
    engine = build_engine(EngineConfig(**SLOW_TWIN))
    sink = CollectingSink()
    engine.register(workload.query(), sink=sink)
    for element in elements:
        engine.ingest_element(element)
        engine.advance_to(element.instant)
    texts = [emission_json(emission) for emission in sink.emissions]
    record_digest(workload.name, seed, len(texts), digest(texts))
    print(f"{workload.name}: seed {seed}, {len(texts)} emissions, "
          f"sha256 {digest(texts)[:16]}... recorded")
