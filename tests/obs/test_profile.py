"""Unit tests for repro.obs.profile: per-category wall-time attribution."""

from repro.obs import Tracer, format_profile
from repro.scenarios import FlowSpec, ScenarioConfig, run


def traced_run():
    config = ScenarioConfig(
        name="obs-profile",
        flows=(FlowSpec(src="host1", dst="host2"),),
        duration=10.0,
        warmup=2.0,
    )
    tracer = Tracer(record_spans=False, record_hops=False)
    result = run(config, trace=tracer)
    return tracer, result


def test_rows_cover_all_events():
    tracer, result = traced_run()
    rows = tracer.profile()
    assert sum(row.events for row in rows) == result.events_processed
    assert [row.wall_ns for row in rows] == sorted(
        (row.wall_ns for row in rows), reverse=True)


def test_format_contains_categories_and_totals():
    tracer, result = traced_run()
    text = format_profile(tracer, wall_seconds=result.wall_seconds)
    assert "category" in text
    assert "total" in text
    for stats in tracer.profile():
        assert stats.category in text
    assert "peak calendar size" in text


def test_format_without_wall_time():
    tracer, _ = traced_run()
    text = format_profile(tracer)
    assert "total" in text
