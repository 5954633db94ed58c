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

The traced pass runs under a deadline no traced run reaches
(``TRACED_SECONDS``), so both sides finish the stream and the counts can
repeat; where the two sides' ``e2e.timed_events`` still differ, a count row
reads ``cut`` rather than ``DIFFERENT``.

``--change <rev>`` archives a second revision in place of the working tree;
``--config-a KEY=VALUE`` / ``--config-b KEY=VALUE`` (repeatable) pass
``--engine-config`` to the base / change side.  With ``--base R --change R
--config-b observability=true`` the A/B is one revision against itself
under another engine configuration.
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
#: Every exact-repeat row of ``benchmarks/e2e/compare.py`` plus the reuse
#: share: functions of the input, so they must read ``identical``.
COUNTS = ("seraph.evaluations", "seraph.emission_rows", "seraph.reuse_share",
          "stream.window_elements_mean", "graph.snapshot_nodes_mean",
          "graph.snapshot_rels_mean")
#: The traced pass's deadline: the untimed pairs keep ``run_seconds``, but a
#: traced run splits its deadline between an untraced and a traced pass (three
#: ways for ``service_pole``), and one cut short of the stream cannot repeat
#: the other side's counts.
TRACED_SECONDS = 300
WIRE = ("service.push_rtt_p50_ms", "service.advance_rtt_p50_ms",
        "service.sse_lag_p50_ms", "service.open_latency_p50_ms",
        "service.open_latency_p90_ms")


def run_once(tree, workload, seed, config, trace=0):
    """One run in ``tree`` under the ``config`` overrides; the metrics of
    its last stdout line."""
    seconds = TRACED_SECONDS if trace else 12
    command = [sys.executable, os.path.join(tree, "benchmarks/e2e/run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    for pair in config:
        command += ["--engine-config", pair]
    line = subprocess.run(
        command, cwd=tree, check=True, capture_output=True, text=True,
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


def compare(sides, workload, pairs, seed, declared, labels):
    """Alternating pairs of ``workload``, then the traced pass; prints both.
    ``sides`` is ``[(tree, config)]`` for base then change."""
    runs = [[], []]
    for pair in range(pairs):
        for index in (0, 1) if pair % 2 == 0 else (1, 0):
            tree, config = sides[index]
            runs[index].append(run_once(tree, workload, seed, config))
        print(f"{workload} pair {pair + 1}/{pairs} done", file=sys.stderr)
    print(f"{workload} seed {seed}: {labels[0]} vs {labels[1]}, "
          f"{pairs} alternating pairs; cells are q1/median/q3\n"
          f"{'metric':18} {'base':>30} {'change':>30}  change/base  wins  verdict")
    for entry in declared:
        values = [[run[entry["name"]] for run in side] for side in runs]
        wins, word = verdict(*values, 1 if entry["better"] == "higher" else -1)
        cells = ["/".join(f"{value:.3f}" for value in quartiles(side))
                 for side in values]
        medians = [quartiles(side)[1] for side in values]
        print(f"{entry['name']:18} {cells[0]:>30} {cells[1]:>30}  "
              f"{ratio(*medians):>11}  {wins:>2}/{pairs}  {word}")
    traced = [run_once(tree, workload, seed, config, trace=1)
              for tree, config in sides]
    print("traced pass, one per side; stages in ms per non-reused evaluation"
          f"\n{'':27} {'base':>12} {'change':>12}  change/base")
    cut = traced[0]["e2e.timed_events"] != traced[1]["e2e.timed_events"]
    for name in COUNTS:
        values = [run[name] for run in traced]
        word = ("identical" if values[0] == values[1]
                else "cut" if cut else "DIFFERENT")
        print(f"{name:27} {values[0]:>12g} {values[1]:>12g}  {word}")
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


def extract(revision, into):
    """``git archive`` one revision of this repository into ``into``."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", revision],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)


def label(revision, config):
    return revision + "".join(f" {pair}" for pair in config)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--change", default=None,
                        help="a revision to archive in place of the working tree")
    parser.add_argument("--config-a", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="--engine-config for the base side (repeatable)")
    parser.add_argument("--config-b", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="--engine-config for the change side (repeatable)")
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    workloads = [args.workload] if args.workload != "all" else [
        workload["name"] for workload in benchmark["workloads"]]
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as scratch:
        base_tree = os.path.join(scratch, "base")
        change_tree = ROOT
        os.mkdir(base_tree)
        extract(args.base, base_tree)
        if args.change is not None:
            change_tree = os.path.join(scratch, "change")
            os.mkdir(change_tree)
            extract(args.change, change_tree)
        sides = [(base_tree, args.config_a), (change_tree, args.config_b)]
        labels = [label(args.base, args.config_a),
                  label(args.change or "working tree", args.config_b)]
        for workload in workloads:
            compare(sides, workload, max(2, args.pairs), args.seed,
                    benchmark["end_to_end"], labels)


if __name__ == "__main__":
    main()
