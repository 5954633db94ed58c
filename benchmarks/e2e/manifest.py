"""``BENCHMARK.json`` at the repository root: the declared contract.

It is the one place metric names, units, directions and regression
bounds live; the harness attaches units from it and the comparer reads
bounds from it, so a number can never be printed under a unit the
contract does not declare.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(BENCH_DIR))
#: the entry point ``BENCHMARK.json`` names; child runs go through it too
RUN_PY = os.path.join(BENCH_DIR, "run.py")


def load() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def metrics(trace: bool) -> List[Dict[str, object]]:
    """The declared metrics of one run kind, in declaration order."""
    return load()["per_layer" if trace else "end_to_end"]


def tagged(values: Dict[str, float], trace: bool) -> Dict[str, Dict[str, object]]:
    """``values`` as the contract prints them: exactly the declared
    names, each with its unit.  A layer row a workload has no source for
    (``service.*`` in process, ``seraph.*_s`` over the wire) reads 0;
    a missing end-to-end metric is a bug and raises."""
    out = {}
    for entry in metrics(trace):
        name = entry["name"]
        value = values.get(name, 0.0) if trace else values[name]
        out[name] = {"value": float(value), "unit": entry["unit"]}
    unknown = set(values) - set(out)
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    return out
