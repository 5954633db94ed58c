"""``tools/bench_ab.py``'s traced pass: a deadline long enough to finish
the stream, and ``cut`` (not ``DIFFERENT``) on counts of runs that
stopped at different events.  The benchmark runs are faked: each call
returns a canned metrics line, so nothing is spawned."""

import importlib.util
import json
import os
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def bench_ab():
    spec = importlib.util.spec_from_file_location(
        "bench_ab", os.path.join(ROOT, "tools", "bench_ab.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_runs(bench_ab, monkeypatch, timed_events, evaluations):
    """Route ``run_once``'s subprocess to canned metrics; the traced runs
    of side ``i`` report ``timed_events[i]`` and ``evaluations[i]``.
    Returns the recorded command lines."""
    commands = []

    def run(command, **_kwargs):
        commands.append(command)
        side = 0 if command[1].startswith("base") else 1
        traced = command[command.index("--trace") + 1] == "1"
        metrics = {name: 1.0 for name in
                   (*bench_ab.COUNTS, *bench_ab.STAGES, "events_per_s")}
        metrics["seraph.reuse_share"] = 0.0
        metrics["e2e.timed_events"] = 100.0
        if traced:
            metrics["seraph.evaluations"] = evaluations[side]
            metrics["e2e.timed_events"] = timed_events[side]
        line = json.dumps({
            "correct": True, "failed": 0,
            "metrics": {name: {"value": value}
                        for name, value in metrics.items()},
        })
        return subprocess.CompletedProcess(command, 0, stdout=line + "\n")

    monkeypatch.setattr(bench_ab.subprocess, "run", run)
    return commands


def compare(bench_ab):
    bench_ab.compare(
        [("base", []), ("change", [])], "pole_delta", 2, 7,
        [{"name": "events_per_s", "better": "higher"}], ["base", "change"],
    )


def count_word(output, name):
    (row,) = [line for line in output.splitlines() if line.startswith(name)]
    return row.split()[-1]


def test_only_the_traced_runs_take_the_long_deadline(
    bench_ab, monkeypatch, capsys
):
    commands = fake_runs(bench_ab, monkeypatch, (100, 100), (50, 50))
    compare(bench_ab)
    seconds = [(command[command.index("--trace") + 1],
                command[command.index("--seconds") + 1])
               for command in commands]
    assert seconds == [("0", "12")] * 4 \
        + [("1", str(bench_ab.TRACED_SECONDS))] * 2
    assert count_word(capsys.readouterr().out,
                      "seraph.evaluations") == "identical"


@pytest.mark.parametrize("timed_events, word", [
    ((100, 90), "cut"),
    ((100, 100), "DIFFERENT"),
])
def test_a_count_differs_as_cut_only_when_the_runs_stopped_apart(
    bench_ab, monkeypatch, capsys, timed_events, word
):
    fake_runs(bench_ab, monkeypatch, timed_events, (50, 45))
    compare(bench_ab)
    output = capsys.readouterr().out
    assert count_word(output, "seraph.evaluations") == word
    assert count_word(output, "seraph.emission_rows") == "identical"
