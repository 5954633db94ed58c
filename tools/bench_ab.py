"""Interleaved A/B of one benchmark workload: BASE revision vs this tree.

``make bench-ab BASE=<rev> WORKLOAD=<w>|all [PAIRS=10] [SEED=7]``: ``git
archive`` BASE into a temporary directory, run ``BENCHMARK.json``'s command in
the two trees alternately, read only its last stdout line.  A side is *better*
when it wins nine tenths of the pairs and the medians differ by over the base's
q3-q1.  After the pairs, one traced pass per side says *where* a metric moved:
the stage seconds per evaluation that was not a reuse tick, beside the counts
that must repeat exactly on both sides, and, where the run has them, the
``service.*`` wire rows (request round trips, SSE lag, open-loop latency).
Every median row, stage row and wire row carries the change/base ratio.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from functools import partial
from statistics import quantiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
quartiles = partial(quantiles, n=4, method="inclusive")
STAGES = ("stage.match_full_s", "stage.match_delta_s", "stage.match_self_s",
          "stage.snapshot_build_s", "stage.window_advance_s", "stage.report_s",
          "stage.total_s")
COUNTS = ("seraph.evaluations", "seraph.emission_rows", "seraph.reuse_share")
WIRE = ("service.push_rtt_p50_ms", "service.advance_rtt_p50_ms",
        "service.sse_lag_p50_ms", "service.open_latency_p50_ms",
        "service.open_latency_p90_ms")


def run_once(tree, workload, seed, trace=0):
    """One run in ``tree``; the metrics of its last stdout line."""
    line = subprocess.run(
        [sys.executable, os.path.join(tree, "benchmarks/e2e/run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", "12", "--trace", str(trace)],
        cwd=tree, check=True, capture_output=True, text=True,
    ).stdout.strip().splitlines()[-1]
    result = json.loads(line)
    if not result["correct"] or result["failed"]:
        sys.exit(f"{tree}: wrong or failed run: {line}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def ratio(base, change):
    return f"{change / base:.3f}" if base else "-"


def verdict(base, change, sign):
    """(pairs the change won, better | worse | unresolved)."""
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    low, median, high = quartiles(base)
    moved = abs(quartiles(change)[1] - median) > high - low
    if moved and max(wins, losses) >= 0.9 * len(base):
        return wins, "better" if wins > losses else "worse"
    return wins, "unresolved"


def compare(trees, workload, pairs, seed, declared, base):
    """Alternating pairs of ``workload``, then the traced pass; prints both."""
    runs = {side: [] for side, _ in trees}
    for pair in range(pairs):
        for side, tree in trees[::1 if pair % 2 == 0 else -1]:
            runs[side].append(run_once(tree, workload, seed))
        print(f"{workload} pair {pair + 1}/{pairs} done", file=sys.stderr)
    print(f"{workload} seed {seed}: {base} vs working tree, "
          f"{pairs} alternating pairs; cells are q1/median/q3\n"
          f"{'metric':18} {'base':>30} {'change':>30}  change/base  wins  verdict")
    for entry in declared:
        sides = [[run[entry["name"]] for run in side] for side in runs.values()]
        wins, word = verdict(*sides, 1 if entry["better"] == "higher" else -1)
        cells = ["/".join(f"{value:.3f}" for value in quartiles(side))
                 for side in sides]
        medians = [quartiles(side)[1] for side in sides]
        print(f"{entry['name']:18} {cells[0]:>30} {cells[1]:>30}  "
              f"{ratio(*medians):>11}  {wins:>2}/{pairs}  {word}")
    traced = [run_once(tree, workload, seed, trace=1) for _, tree in trees]
    print("traced pass, one per side; stages in ms per non-reused evaluation"
          f"\n{'':27} {'base':>12} {'change':>12}  change/base")
    for name in COUNTS:
        values = [run[name] for run in traced]
        print(f"{name:27} {values[0]:>12g} {values[1]:>12g}  "
              f"{'identical' if values[0] == values[1] else 'DIFFERENT'}")
    for name in STAGES:
        per_full = [
            1e3 * run[name] / max(
                1.0, run["seraph.evaluations"] * (1 - run["seraph.reuse_share"]))
            for run in traced
        ]
        print(f"{name:27} {per_full[0]:>12.4f} {per_full[1]:>12.4f}  "
              f"{ratio(*per_full):>11}", flush=True)
    for name in WIRE:
        values = [run.get(name, 0.0) for run in traced]
        if not any(values):  # an in-process workload reports 0.0
            continue
        print(f"{name:27} {values[0]:>12.4f} {values[1]:>12.4f}  "
              f"{ratio(*values):>11}", flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    workloads = [args.workload] if args.workload != "all" else [
        workload["name"] for workload in benchmark["workloads"]]
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as base_tree:
        archive = subprocess.run(["git", "-C", ROOT, "archive", args.base],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", base_tree], input=archive, check=True)
        for workload in workloads:
            compare([("base", base_tree), ("change", ROOT)], workload,
                    max(2, args.pairs), args.seed, benchmark["end_to_end"],
                    args.base)


if __name__ == "__main__":
    main()
