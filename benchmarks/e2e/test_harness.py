"""Self-test of the benchmark harness (``pytest benchmarks/e2e``).

Runs every workload at ``--scale 0.02`` through the command
``BENCHMARK.json`` declares and checks the output contract: every
declared metric is there, finite and under its declared unit; names are
well formed; the counts that are functions of the input alone repeat
exactly for one seed and change with the seed.  Not part of tier-1
``testpaths``: it starts ~25 short processes.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

from benchmarks.e2e import manifest
from benchmarks.e2e.compare import EXACT
from benchmarks.e2e.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
DECLARED = manifest.load()


def run(workload: str, seed: int, trace: int, cwd: str = manifest.ROOT):
    completed = subprocess.run(
        [sys.executable, *DECLARED["command"][1:], "--workload", workload,
         "--seed", str(seed), "--seconds", "5", "--trace", str(trace),
         "--scale", "0.02"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_manifest_names_the_workloads_and_well_formed_metrics():
    assert [w["name"] for w in DECLARED["workloads"]] == [w.name for w in WORKLOADS]
    names = [entry["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for entry in DECLARED[kind]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert any(entry["name"] == "setup_s" and entry["unit"] == "s"
               for entry in DECLARED["end_to_end"])
    for entry in DECLARED["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25


@pytest.mark.parametrize("workload", [w.name for w in WORKLOADS])
def test_workload_emits_the_declared_metrics(workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result = run(workload, seed=1, trace=trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        declared = {entry["name"]: entry["unit"] for entry in DECLARED[kind]}
        assert set(result["metrics"]) == set(declared)
        for name, entry in result["metrics"].items():
            assert entry["unit"] == declared[name], name
            assert math.isfinite(entry["value"]), name
            if trace == 0:
                assert entry["value"] > 0, name  # end-to-end metrics are never 0


@pytest.mark.parametrize("workload", [w.name for w in WORKLOADS])
def test_input_counts_repeat_for_a_seed_and_change_with_it(workload):
    def counts(seed):
        metrics = run(workload, seed=seed, trace=1)["metrics"]
        return tuple(metrics[name]["value"] for name in EXACT)

    first = counts(1)
    assert counts(1) == first
    assert counts(2) != first


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark there is no engine to
    measure: the command must exit non-zero and print no result."""
    shutil.copy(os.path.join(manifest.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(manifest.ROOT, "benchmarks", "e2e"),
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, *DECLARED["command"][1:], "--workload", "pole_delta",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout


def test_a_wrong_emission_fails_the_whole_run():
    """The checker must be able to say no: one dropped row at a sampled
    instant fails every attempted event of the run."""
    from benchmarks.e2e import inproc, report
    from benchmarks.e2e.check import Reference
    from benchmarks.e2e.workloads import BY_NAME
    from repro.service.sse import emission_json

    workload = BY_NAME["pole_delta"]
    elements = workload.generate(1, 60)
    harness = inproc.Harness(workload, {}, traced=False)
    for element in elements:
        harness.step(element)
    emitted = {emission.instant: emission_json(emission)
               for _at, emission in harness.arrivals}
    stride = 10  # check.stride_for of a short run
    instant = next(i for i in sorted(emitted)[stride - 1::stride]
                   if json.loads(emitted[i])["rows"])
    summary = dict.fromkeys(
        ("latency_samples", "timed_wall_s", "mean_events_per_s",
         "latency_p50_all_ms", "latency_p90_all_ms"), 1.0)
    summary["timed_events"] = len(elements)

    def failed(emissions):
        return report.outcome(
            workload.name, 1, summary, Reference(workload.query(), elements),
            emissions, [emissions[i] for i in sorted(emissions)],
            complete=True, missing=0)["failed"]

    assert failed(emitted) == 0
    document = json.loads(emitted[instant])
    document["rows"] = document["rows"][1:]
    assert failed({**emitted, instant: json.dumps(document)}) == len(elements)
