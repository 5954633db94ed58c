"""Command line: one workload run, the whole benchmark, the comparer.

``--workload NAME`` runs that workload once **in this process** (the
form ``BENCHMARK.json``'s command uses; one fresh process per workload
keeps ``peak_rss_mb`` per workload) and prints, as the last line of
stdout, ``{"correct", "attempted", "failed", "metrics"}``.

Without ``--workload`` it runs every workload, each in its own child
process, once untraced (end-to-end metrics) and once traced (per-layer
metrics), prints both tables and can write them with ``--out`` for
``compare``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional

from . import manifest


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--workloads", help="comma-separated subset (default all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="deadline of the timed section "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every workload's event count")
    parser.add_argument("--engine-config", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="EngineConfig override for an investigation run "
                        "(labelled; never a baseline)")
    parser.add_argument("--repeats", type=int, default=1,
                        help="untraced runs per workload (whole benchmark)")
    parser.add_argument("--out", help="write the result document here")
    parser.add_argument("--spans-out", help="write the traced run's spans here")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)  # timed from outside by inproc
    parser.add_argument("--regen-expected", action="store_true",
                        help="record slow-twin digests for --seed under expected/")
    return parser


def _overrides(pairs: List[str]) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep:
            raise SystemExit(f"--engine-config wants KEY=VALUE, got {pair!r}")
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def _stamp(args, started: float, load_start: float) -> Dict[str, object]:
    nproc = os.cpu_count() or 1
    load_end = os.getloadavg()[0]
    return {
        "commit": _commit(), "python": platform.python_version(),
        "nproc": nproc, "load_start": load_start, "load_end": load_end,
        # judged on the reading taken before this run added its own load
        "noisy": load_start > nproc - 1,
        "seed": args.seed, "scale": args.scale,
        "wall_s": time.perf_counter() - started,
        "engine_config": _overrides(args.engine_config),
    }


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=manifest.ROOT, check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"  # the driver's checkout is not a git repository


def run_one(args) -> int:
    """One workload, in this process; the contract's output format."""
    from .workloads import BY_NAME

    workload = BY_NAME.get(args.workload)
    if workload is None:
        raise SystemExit(
            f"unknown workload {args.workload!r}; known: {sorted(BY_NAME)}")
    if args.setup_only:
        from .inproc import set_up
        set_up(workload, args.seed, _overrides(args.engine_config))
        return 0
    if workload.loop == "inproc":
        from .inproc import run
    else:
        from .service import run
    started, load_start = time.perf_counter(), os.getloadavg()[0]
    seconds = args.seconds or manifest.load()["run_seconds"]
    if args.regen_expected:
        from .check import regenerate
        regenerate(workload, args.seed, args.scale)
        return 0
    result = run(workload, args.seed, seconds, bool(args.trace), args.scale,
                 _overrides(args.engine_config), spans_out=args.spans_out)
    metrics = manifest.tagged(result.pop("values"), bool(args.trace))
    result["correct"] = result["failed"] == 0
    result["metrics"] = metrics
    result["workload"], result["trace"] = workload.name, args.trace
    result["stamp"] = _stamp(args, started, load_start)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1)
    for name, entry in metrics.items():
        print(f"{workload.name:18s} {name:38s} {entry['value']:14.6g} {entry['unit']}")
    detail = result["detail"]
    print(f"{workload.name}: {detail['timed_events']} timed events, "
          f"{detail['latency_samples']} latency samples, "
          f"{detail['sampled_instants']} instants checked against the "
          f"reference, digest {detail['digest']}, "
          f"failed {result['failed']}/{result['attempted']}")
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # EngineConfig() must mean the documented defaults: no REPRO_* knob
    # from the caller's shell reaches this process or its children.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    if argv[:1] == ["compare"]:
        from .compare import main as compare_main
        return compare_main(argv[1:])
    args = _parser().parse_args(argv)
    if args.workload:
        return run_one(args)
    from .suite import run_all
    return run_all(args)
