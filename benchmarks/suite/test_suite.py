"""Self-test of the benchmark (not part of tier-1; run it explicitly)::

    python3 -m pytest benchmarks/suite/test_suite.py

It drives the same functions ``run.py`` does with tiny sizes, so it
checks the plumbing — names, units, spans, the failure path — not the
numbers.
"""

from __future__ import annotations

import json
import os
import re

import pytest

from benchmarks.suite import run as suite_run  # puts src/ on sys.path
from benchmarks.suite import harness, layers, workloads
from benchmarks.suite.spans import SpanRecorder
from repro.scenarios import families

TINY = workloads.Sizes(
    figure_cases=("figure2", "figure8"),
    population_n=8, population_duration=6.0, population_warmup=2.0,
    phase_cases=families.phase_grid((2, 4), (10,), (1.0,)),
    phase_duration=20.0, phase_warmup=5.0,
    backend_cases=families.phase_grid((2,), (10,), (0.0, 1.0)),
    backend_duration=10.0, backend_warmup=3.0,
)
SECONDS = 0.3
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def declared() -> dict:
    return suite_run.declared()


@pytest.fixture()
def scratch(monkeypatch):
    made = harness.Scratch()
    for key, value in harness.child_env(made.cache_guard).items():
        monkeypatch.setenv(key, value)
    yield made
    assert made.close() == []
    assert harness.leaked_workers() == []


def tiny_run(name: str, scratch, recorder=None) -> workloads.Outcome:
    inputs = workloads.prepare(name, workloads.DEFAULT_SEED, TINY)
    return workloads.run_workload(name, inputs, SECONDS, scratch,
                                  harness.Machine(), recorder, TINY)


def test_declaration_is_well_formed(declared):
    assert declared["paths"] == ["benchmarks/suite"]
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    metrics = declared["end_to_end"] + declared["per_layer"]
    names = [m["name"] for m in metrics] + list(workloads.WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in declared["end_to_end"])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(name, scratch, declared):
    outcome, metrics = suite_run.run_untraced(
        name, workloads.DEFAULT_SEED, SECONDS, scratch, TINY, None)
    assert outcome.failed == 0 and outcome.attempted > 0, outcome.problems
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {
        metric: unit for metric, (_, unit) in metrics.items()}
    assert all(value > 0 for value, _ in metrics.values())


def test_traced_runs_emit_every_per_layer_metric(scratch, declared, monkeypatch):
    want = {m["name"]: m["unit"] for m in declared["per_layer"]}
    measured = layers.measure_layers(workloads.DEFAULT_SEED, scratch, [])
    # The layer micro-runs do not depend on the workload: measure once.
    monkeypatch.setattr(layers, "measure_layers", lambda *_: dict(measured))
    for name in workloads.WORKLOADS:
        outcome, metrics = suite_run.run_traced(
            name, workloads.DEFAULT_SEED, SECONDS, scratch, TINY, None)
        assert outcome.failed == 0, outcome.problems
        assert want == {metric: unit for metric, (_, unit) in metrics.items()}
        trace = json.loads((harness.OUT_DIR / f"{name}-seed1.trace.json"
                            ).read_text())
        assert trace["traceEvents"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_spans_nest_and_self_times_are_not_negative(name, scratch):
    recorder = SpanRecorder()
    outcome = tiny_run(name, scratch, recorder)
    assert outcome.failed == 0, outcome.problems
    assert recorder.spans
    for span in recorder.spans:
        assert span.end >= span.start
        if span.parent is not None:
            parent = recorder.spans[span.parent]
            assert parent.ident == span.parent and parent is not span
            assert parent.start <= span.start and span.end <= parent.end
        assert recorder.self_seconds(span) >= 0.0
    roots = sum(s.duration for s in recorder.spans if s.parent is None)
    assert sum(recorder.self_by_name().values()) >= 0.99 * roots


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_two_runs_give_identical_statistics(name, scratch):
    first, second = tiny_run(name, scratch), tiny_run(name, scratch)
    assert first.stats == second.stats
    assert first.stats["events"] > 0 and first.stats["packets"] > 0


def test_corrupted_reference_fails_every_operation(capsys):
    poisoned = {"seed": workloads.DEFAULT_SEED,
                "paper_figures": {"any_seed": {"events": -1}}}
    code = suite_run.run_one("paper_figures", workloads.DEFAULT_SEED, SECONDS,
                             trace=False, sizes=TINY, reference=poisoned)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_committed_reference_covers_every_workload():
    reference = workloads.load_reference()
    assert reference["seed"] == workloads.DEFAULT_SEED
    for name in workloads.WORKLOADS:
        assert reference[name]["any_seed"] or reference[name]["default_seed"]


def test_forbidden_environment_is_refused(monkeypatch):
    monkeypatch.setenv("REPRO_COMPILED", "1")
    with pytest.raises(SystemExit, match="REPRO_COMPILED"):
        harness.refuse_tainted_env()


def test_stop_children_leaves_no_process_behind():
    import multiprocessing
    import subprocess
    import sys

    # Starts multiprocessing's resource tracker, as the first spawn does.
    multiprocessing.get_context("spawn").Semaphore()
    tracker = harness._resource_tracker()
    assert tracker._pid is not None
    stray = subprocess.Popen([sys.executable, "-c",
                              "import time; time.sleep(60)"])
    assert any(str(stray.pid) in leak for leak in harness.leaked_workers())
    stopped = harness.stop_children()
    assert len(stopped) == 1 and str(stray.pid) in stopped[0]
    assert tracker._pid is None and harness.leaked_workers() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # no child left, running or zombie
