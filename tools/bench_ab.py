"""Interleaved A/B of one benchmark workload: BASE revision vs this tree.

``make bench-ab BASE=<rev> WORKLOAD=<w> [PAIRS=10] [SEED=7]``: ``git archive``
BASE into a temporary directory, run ``BENCHMARK.json``'s command in the two
trees alternately, read only its last stdout line.  A side is *better* when it
wins nine tenths of the pairs and the medians differ by over the base's q3-q1.
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


def run_once(tree, workload, seed):
    """One untraced run in ``tree``; the metrics of its last stdout line."""
    line = subprocess.run(
        [sys.executable, os.path.join(tree, "benchmarks/e2e/run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", "12", "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True,
    ).stdout.strip().splitlines()[-1]
    result = json.loads(line)
    if not result["correct"] or result["failed"]:
        sys.exit(f"{tree}: wrong or failed run: {line}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def verdict(base, change, sign):
    """(pairs the change won, better | worse | unresolved)."""
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    low, median, high = quartiles(base)
    moved = abs(quartiles(change)[1] - median) > high - low
    if moved and max(wins, losses) >= 0.9 * len(base):
        return wins, "better" if wins > losses else "worse"
    return wins, "unresolved"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["end_to_end"]
    runs = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as base_tree:
        archive = subprocess.run(["git", "-C", ROOT, "archive", args.base],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", base_tree], input=archive, check=True)
        trees = [("base", base_tree), ("change", ROOT)]
        pairs = max(2, args.pairs)
        for pair in range(pairs):
            for side, tree in trees[::1 if pair % 2 == 0 else -1]:
                runs[side].append(run_once(tree, args.workload, args.seed))
            print(f"pair {pair + 1}/{pairs} done", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {args.base} vs working tree, "
          f"{pairs} alternating pairs; cells are q1/median/q3\n"
          f"{'metric':18} {'base':>30} {'change':>30}  wins  verdict")
    for entry in declared:
        sides = [[run[entry["name"]] for run in side] for side in runs.values()]
        wins, word = verdict(*sides, 1 if entry["better"] == "higher" else -1)
        cells = ["/".join(f"{value:.3f}" for value in quartiles(side))
                 for side in sides]
        print(f"{entry['name']:18} {cells[0]:>30} {cells[1]:>30}  "
              f"{wins:>2}/{pairs}  {word}")


if __name__ == "__main__":
    main()
