"""``benchmarks/perf_gate.py`` judged on canned suite records.

The gate has no timing code, so its whole behaviour is a function of the
five result lines it reads: these tests hand it canned ones instead of
running the suite.
"""

import copy
import json

import pytest

from benchmarks import perf_gate

#: One suite result line on which every limit holds with room to spare.
GOOD = {
    "correct": True, "attempted": 22, "failed": 0,
    "metrics": {
        "engine.vs_frozen_kernel_pct": {"value": -5.0, "unit": "%"},
        "parallel.runner_overhead_pct": {"value": 0.5, "unit": "%"},
        "scenarios.run_overhead_pct": {"value": 0.5, "unit": "%"},
        "net.red_overhead_pct": {"value": 25.0, "unit": "%"},
        "metrics.monitor_overhead_pct.two_way": {"value": 5.3, "unit": "%"},
        "engine.cancel_pairs_per_s": {"value": 1.0e6, "unit": "1/s"},
        "engine.tick_events_per_s": {"value": 1.2e6, "unit": "1/s"},
        "scenarios.build_ms.n128": {"value": 5.0, "unit": "ms"},
        "scenarios.build_ms.n2": {"value": 0.18, "unit": "ms"},
    },
}


def _exit_code(monkeypatch, records):
    feed = iter(records)
    monkeypatch.setattr(perf_gate, "suite_record", lambda: next(feed))
    return perf_gate.main()


def _records(**changed_in_three):
    """Five records; three of them (so the median too) carry the change."""
    records = [copy.deepcopy(GOOD) for _ in range(perf_gate.RUNS)]
    for record in records[:3]:
        for name, value in changed_in_three.items():
            record["metrics"][name]["value"] = value
    return records


def test_all_under_limit_passes(monkeypatch):
    assert _exit_code(monkeypatch, _records()) == 0


def test_one_outlier_run_does_not_move_the_median(monkeypatch):
    records = _records()
    records[0]["metrics"]["net.red_overhead_pct"]["value"] = 1e6
    assert _exit_code(monkeypatch, records) == 0


@pytest.mark.parametrize("name, divisor, limit, bad_side", perf_gate.LIMITS)
def test_a_median_across_its_limit_fails(monkeypatch, name, divisor, limit,
                                         bad_side):
    worse = abs(limit) * 2 + 1 if bad_side == "above" else 0.0
    assert _exit_code(monkeypatch, _records(**{name: worse})) == 1


def test_monitor_fence_is_drawn_from_the_journal_sinks(monkeypatch):
    """40 % sat under the fence drawn from the eager handlers (43); the
    highest of the 24 single runs that drew this one read 12.8."""
    name = "metrics.monitor_overhead_pct.two_way"
    assert _exit_code(monkeypatch, _records(**{name: 40.0})) == 1
    assert _exit_code(monkeypatch, _records(**{name: 12.8})) == 0


def test_build_growth_ratio_ignores_machine_speed_and_sees_a_quadratic(monkeypatch):
    """A runner three times slower moves both builds and passes; the
    N = 128 build alone going back to a route table per host over every
    host (12.3 ms on the machine whose N = 2 build takes 0.18 ms) or to
    one BFS per host (32 ms) does not."""
    slower = {"scenarios.build_ms.n128": 3 * 5.0, "scenarios.build_ms.n2": 3 * 0.18}
    assert _exit_code(monkeypatch, _records(**slower)) == 0
    for quadratic in (12.3, 32.2):
        assert _exit_code(monkeypatch, _records(
            **{"scenarios.build_ms.n128": quadratic})) == 1


def test_a_missing_metric_fails(monkeypatch):
    records = _records()
    del records[4]["metrics"]["scenarios.run_overhead_pct"]
    assert _exit_code(monkeypatch, records) == 1


def test_an_incorrect_run_fails(monkeypatch):
    records = _records()
    records[2]["correct"] = False
    assert _exit_code(monkeypatch, records) == 1


def test_every_gated_metric_is_declared_in_the_benchmark():
    declared = json.loads((perf_gate.REPO_ROOT / "BENCHMARK.json").read_text())
    per_layer = {metric["name"] for metric in declared["per_layer"]}
    gated = {name for row in perf_gate.LIMITS for name in row[:2] if name}
    assert gated <= per_layer
