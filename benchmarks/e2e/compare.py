"""``python -m benchmarks.e2e compare A.json B.json``: did B get worse?

A and B are documents written by ``python -m benchmarks.e2e --out``.
One row per (workload, end-to-end metric): both medians (with quartiles
when the side has more than one run), the relative change of B against
A, the metric's bound from ``BENCHMARK.json`` and a verdict:

* ``unresolved`` — a side's own run-to-run spread (quartile distance over
  median) exceeds the bound, so the pair cannot be judged;
* ``worse`` — B is worse than A by more than the bound;
* ``better`` — B is better than A by more than A's own spread (and 1 %);
* ``same`` — anything else.

Failed events, the counts that must repeat exactly and the open-loop
limit misses of a workload with an open-loop phase (worse past +0.02 absolute) are compared
below the table.  Exit status 1 if any row is ``worse`` or
``unresolved``, more events failed in B, or more open-loop events
missed the latency limit.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Tuple

from . import manifest

#: open loop: B may miss the latency limit on this much more of its events
MISS_SLACK = 0.02
MISS = "service.open_limit_miss_share"

#: layer rows that are functions of the input alone
EXACT = ("seraph.evaluations", "seraph.emission_rows",
         "stream.window_elements_mean", "graph.snapshot_nodes_mean",
         "graph.snapshot_rels_mean")


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _cell(values: List[float]) -> str:
    q1, q2, q3 = _quartiles(values)
    if len(values) < 2:
        return f"{q2:.5g}"
    return f"{q2:.5g} [{q1:.5g}..{q3:.5g}]"


def _verdict(a: List[float], b: List[float], better: str,
             bound: float) -> Tuple[float, str]:
    a1, a2, a3 = _quartiles(a)
    b1, b2, b3 = _quartiles(b)
    change = (b2 - a2) / a2
    worsening = change if better == "lower" else -change
    spread_a, spread_b = (a3 - a1) / a2, (b3 - b1) / b2
    if max(spread_a, spread_b) > bound:
        return change, "unresolved"
    if worsening > bound:
        return change, "worse"
    if -worsening > max(spread_a, 0.01):
        return change, "better"
    return change, "same"


def _values(document: Dict, workload: str, metric: str) -> List[float]:
    return [run["metrics"][metric]["value"]
            for run in document["runs"][workload]["end_to_end"]]


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, "r", encoding="utf-8") as handle:
            documents.append(json.load(handle))
    a, b = documents
    for side, path, document in zip("AB", argv, documents):
        stamp = document["stamp"]
        print(f"{side}: {path}  [{document['label']}]  commit "
              f"{stamp['commit'][:12]}  seed {stamp['seed']}  scale "
              f"{stamp['scale']}  load {stamp['load_start']:.2f}.."
              f"{stamp['load_end']:.2f}{'  NOISY' if stamp['noisy'] else ''}")
    declared = manifest.metrics(trace=False)
    bad = 0
    print(f"\n{'workload':18s} {'metric':18s} {'A':>30s} {'B':>30s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    shared = [name for name in a["runs"] if name in b["runs"]]
    for workload in shared:
        for entry in declared:
            name = entry["name"]
            va, vb = _values(a, workload, name), _values(b, workload, name)
            change, verdict = _verdict(va, vb, entry["better"], entry["bound"])
            bad += verdict in ("worse", "unresolved")
            print(f"{workload:18s} {name:18s} {_cell(va):>30s} {_cell(vb):>30s} "
                  f"{change:+8.1%} {entry['bound']:6.0%}  {verdict}")
    print()
    for workload in shared:
        failed = [sum(run["failed"] for run in doc["runs"][workload]["end_to_end"])
                  for doc in documents]
        attempted = [sum(run["attempted"] for run in doc["runs"][workload]["end_to_end"])
                     for doc in documents]
        share = [f / max(1, n) for f, n in zip(failed, attempted)]
        verdict = "worse" if share[1] > share[0] else "same"
        bad += verdict == "worse"
        layers = [doc["runs"][workload]["per_layer"]["metrics"] for doc in documents]
        differ = [name for name in EXACT
                  if layers[0][name]["value"] != layers[1][name]["value"]]
        print(f"{workload:18s} failed_share {share[0]:.4f} -> {share[1]:.4f} "
              f"{verdict}; exact-repeat counts "
              f"{'identical' if not differ else 'DIFFER: ' + ', '.join(differ)}")
        if all(layer["service.open_events_per_s"]["value"] for layer in layers):
            miss = [layer[MISS]["value"] for layer in layers]
            verdict = "worse" if miss[1] > miss[0] + MISS_SLACK else "same"
            bad += verdict == "worse"
            print(f"{workload:18s} {MISS} {miss[0]:.4f} -> {miss[1]:.4f} "
                  f"{verdict}")
    return 1 if bad else 0
