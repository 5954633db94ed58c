"""The whole benchmark in one command: every workload, both run kinds.

Each run is a fresh child process (``run.py --workload ...``), so no
workload inherits another's heap or caches.  Per workload: ``--repeats``
untraced runs (end-to-end metrics) and one traced run (per-layer
metrics).  Exits non-zero if any run's emissions were wrong.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from typing import Dict, List

from . import manifest
from .cli import _stamp

#: layer rows printed as a share of the time the engine held the event
_BUSY = ("seraph.advance_s", "seraph.ingest_s")


def _child(args, workload: str, trace: int, out: str) -> Dict[str, object]:
    command = [
        sys.executable, manifest.RUN_PY,
        "--workload", workload, "--seed", str(args.seed),
        "--trace", str(trace), "--scale", str(args.scale), "--out", out,
    ]
    if args.seconds:
        command += ["--seconds", str(args.seconds)]
    for pair in args.engine_config:
        command += ["--engine-config", pair]
    if args.spans_out and trace:
        command += ["--spans-out", f"{args.spans_out}.{workload}.jsonl"]
    if os.path.exists(out):
        os.remove(out)  # never read the previous run's document
    subprocess.run(command, stdout=subprocess.DEVNULL, check=False)
    if not os.path.exists(out):
        raise SystemExit(f"run produced no result: {' '.join(command)}")
    with open(out, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _print_end_to_end(runs: Dict[str, Dict[str, object]]) -> None:
    declared = manifest.metrics(trace=False)
    print(f"\n{'workload':18s} " + " ".join(
        f"{entry['name'] + ' [' + entry['unit'] + ']':>22s}" for entry in declared)
        + "   samples  failed/attempted")
    for workload, run in runs.items():
        first = run["end_to_end"][0]
        cells = " ".join(
            f"{first['metrics'][entry['name']]['value']:22.6g}" for entry in declared)
        print(f"{workload:18s} {cells}   {first['detail']['latency_samples']:7d}"
              f"  {first['failed']}/{first['attempted']}")


def _print_per_layer(runs: Dict[str, Dict[str, object]]) -> None:
    declared = manifest.metrics(trace=True)
    names = list(runs)
    print(f"\n{'layer metric [unit]':44s} " + " ".join(f"{n:>22s}" for n in names))
    for entry in declared:
        cells = []
        for workload in names:
            metrics = runs[workload]["per_layer"]["metrics"]
            value = metrics[entry["name"]]["value"]
            busy = sum(metrics[name]["value"] for name in _BUSY)
            cell = f"{value:.6g}"
            if entry["unit"] == "s" and busy:
                cell += f" ({value / busy:4.0%})"
            cells.append(f"{cell:>22s}")
        print(f"{entry['name'] + ' [' + entry['unit'] + ']':44s} " + " ".join(cells))
    print("(seconds are totals over the traced timed section; the share is of "
          "seraph.advance_s + seraph.ingest_s)")


def run_all(args) -> int:
    from .workloads import BY_NAME, WORKLOADS

    names = args.workloads.split(",") if args.workloads else [
        workload.name for workload in WORKLOADS]
    unknown = [name for name in names if name not in BY_NAME]
    if unknown:
        raise SystemExit(f"unknown workloads {unknown}; known: {sorted(BY_NAME)}")
    if args.regen_expected:
        for name in names:
            subprocess.run(
                [sys.executable, manifest.RUN_PY, "--workload", name,
                 "--seed", str(args.seed), "--scale", str(args.scale),
                 "--regen-expected"], check=True)
        return 0
    started, load_start = time.perf_counter(), os.getloadavg()[0]
    if load_start > (os.cpu_count() or 1) - 1:
        print(f"warning: load average {load_start:.2f} exceeds nproc - 1 "
              "before the first run; this result is marked noisy",
              file=sys.stderr)
    runs: Dict[str, Dict[str, object]] = {}
    # inside the benchmark's own directory: a run writes nowhere else
    with tempfile.TemporaryDirectory(
            prefix=".e2e-", dir=manifest.BENCH_DIR) as scratch:
        out = os.path.join(scratch, "run.json")
        for name in names:
            print(f"{name} ...", file=sys.stderr, flush=True)
            runs[name] = {
                "end_to_end": [_child(args, name, 0, out)
                               for _ in range(args.repeats)],
                "per_layer": _child(args, name, 1, out),
            }
    _print_end_to_end(runs)
    _print_per_layer(runs)
    stamp = _stamp(args, started, load_start)
    failures: List[str] = [
        name for name, run in runs.items()
        if not all(r["correct"] for r in run["end_to_end"] + [run["per_layer"]])
    ]
    if args.out:
        label = "baseline" if not stamp["engine_config"] else "investigation: " + \
            ",".join(args.engine_config)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"label": label, "stamp": stamp, "runs": runs},
                      handle, indent=1)
    if failures:
        print(f"WRONG EMISSIONS on: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0
