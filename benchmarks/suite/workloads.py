"""The four workloads, their inputs, and the exact-statistics check.

Every workload is driven through public API only (``repro.scenarios``,
``repro.experiments.parity``, ``repro.parallel``).  Load comes from one
process, closed loop, with at most ``nproc`` workers or agents.

Everything handed to ``sweep()`` is a module-level function (or a
``functools.partial`` of one): the spawn pool pickles it, the worker
fleet ships it by module + qualified name, and the result cache
fingerprints its source.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import shutil
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Iterator, Sequence

from repro import scenarios
from repro.experiments import parity
from repro.experiments.population import RED_BUFFER, RED_PARAMS
from repro.parallel import PointProgress, ResultCache
from repro.scenarios import families
from repro.scenarios.config import QueueSpec, ScenarioConfig

from benchmarks.suite.harness import (
    REPO_ROOT,
    SUITE_DIR,
    WORKLOADS,
    Machine,
    Scratch,
    repeat_for,
    summary,
)
from benchmarks.suite.spans import Span, SpanRecorder

DEFAULT_SEED = 1
REFERENCE_PATH = SUITE_DIR / "reference.json"


@dataclass(frozen=True)
class Sizes:
    """How big one pass of each workload is.

    ``FULL`` is what every recorded run uses (the CLI cannot change it);
    the self-test passes a tiny instance.  Durations are simulated
    seconds.  Passes are kept around a second of wall or less so that
    one run collects enough of them for a steady median; the per-flow
    shape each workload exists for (calendar depth, timers and cwnd logs
    per flow, points per sweep) does not depend on the duration.
    """

    figure_cases: tuple[str, ...] | None = None
    """Parity case names; ``None`` = all eleven."""
    population_n: int = 128
    population_duration: float = 15.0
    population_warmup: float = 5.0
    phase_cases: tuple[tuple[int, int, float], ...] = families.phase_grid(
        (2, 4, 8, 16, 32), (10, 40), (1.0,))
    phase_duration: float = 90.0
    phase_warmup: float = 30.0
    warm_share: float = 0.3
    """Share of ``phase_sweep_cache``'s time spent on warm passes."""
    backend_cases: tuple[tuple[int, int, float], ...] = families.phase_grid(
        (8, 16), (10, 40, 80), (1.0,))
    backend_duration: float = 80.0
    backend_warmup: float = 30.0


FULL = Sizes()

#: Not more workers or agents than cores: the box is the system under test.
JOBS = min(2, os.cpu_count() or 1)

#: The four ways to execute a sweep point, as ``sweep()`` keywords.
BACKEND_PATHS: dict[str, dict[str, object]] = {
    "serial": {"jobs": 1},
    "pool": {"jobs": JOBS},
    "supervised": {"jobs": JOBS, "resilience": True},
    "fleet": {"jobs": JOBS, "backend": "worker"},
}


# ----------------------------------------------------------------------
# Module-level wrappers handed to sweep()
# ----------------------------------------------------------------------
#: The traced run's recorder, visible to the wrappers below only while
#: :func:`recording` is active and only in this process — the wrappers
#: must stay plain module-level functions to cross process boundaries,
#: so they cannot carry a recorder of their own.
_RECORDER: SpanRecorder | None = None


@contextmanager
def recording(recorder: SpanRecorder | None) -> Iterator[None]:
    global _RECORDER
    previous, _RECORDER = _RECORDER, recorder
    try:
        yield
    finally:
        _RECORDER = previous


def _wrapper_span(name: str):
    """A span on the active recorder, or nothing when there is none."""
    return nullcontext() if _RECORDER is None else _RECORDER.span(name)


def run_counts(connections, traces, events: int) -> dict[str, int]:
    """The simulated statistics that must repeat exactly."""
    return {
        "events": int(events),
        "packets": sum(int(conn.receiver.rcv_nxt) for conn in connections),
        "drops": len(traces.drops.records),
        "timeouts": sum(int(getattr(conn.sender, "timeouts", 0))
                        for conn in connections),
        "retransmits": sum(int(getattr(conn.sender, "retransmits", 0))
                           for conn in connections),
    }


def counted_sync_extract(result) -> dict[str, float]:
    """``families.sync_extract`` plus the exact counts of the run.

    The counts ride in the measurement dict (``n:`` keys) because that
    dict is the only thing a sweep returns from another process.
    """
    with _wrapper_span("analysis.extract"):
        measurements = families.sync_extract(result)
    counts = run_counts(result.connections, result.traces,
                        result.events_processed)
    measurements.update({f"n:{name}": float(value)
                         for name, value in counts.items()})
    return measurements


def seeded_manyflow_config(case: tuple[int, int, float], seed: int,
                           duration: float, warmup: float) -> ScenarioConfig:
    """One phase-diagram point carrying the run's seed."""
    with _wrapper_span("scenarios.make_config"):
        return families.manyflow_config(
            case, duration=duration, warmup=warmup).with_updates(seed=seed)


def population_configs(n: int, seed: int, duration: float,
                       warmup: float) -> list[tuple[str, ScenarioConfig]]:
    """The N-flow dumbbell once drop-tail and once RED.

    Bandwidth, buffer and RED thresholds scale by ``n / 2`` exactly as
    ``repro.experiments.population`` scales them, so per-flow capacity
    is the two-flow baseline at every N.  Starts are staggered so the
    whole population is up by half the warm-up: with the family's
    default 0.5 s stagger a run this short would only ever start a
    fraction of its flows, and the calendar would never get deep.
    """
    scale = n / 2
    base = families.manyflow_config((n, max(1, round(RED_BUFFER * scale)), 0.5),
                                    duration=duration, warmup=warmup,
                                    stagger=warmup / (2 * n))
    base = base.with_updates(
        seed=seed, bottleneck_bandwidth=base.bottleneck_bandwidth * scale)
    red_params = dict(RED_PARAMS)
    red_params["min_th"] = RED_PARAMS["min_th"] * scale
    red_params["max_th"] = RED_PARAMS["max_th"] * scale
    return [
        ("droptail", base.with_updates(name=f"{base.name}+scaled")),
        ("red", base.with_updates(name=f"{base.name}+red",
                                  queue=QueueSpec("red", red_params))),
    ]


# ----------------------------------------------------------------------
# Inputs (what ``setup_s`` builds in a fresh interpreter)
# ----------------------------------------------------------------------
def prepare(name: str, seed: int, sizes: Sizes = FULL) -> dict[str, object]:
    """Build one workload's inputs from the seed."""
    order = random.Random(seed)
    if name == "paper_figures":
        # Configs are pinned by the goldens; the seed only orders them.
        cases = [(case.name, case.build())
                 for case in parity.parity_cases(
                     list(sizes.figure_cases) if sizes.figure_cases else None)]
        order.shuffle(cases)
        golden = parity.load_golden(REPO_ROOT / parity.DEFAULT_GOLDEN_PATH)
        return {"cases": cases, "golden": golden["scenarios"]}
    if name == "population":
        cases = population_configs(sizes.population_n, seed,
                                   sizes.population_duration,
                                   sizes.population_warmup)
        order.shuffle(cases)
        return {"cases": cases}
    if name == "phase_sweep_cache":
        make_config = functools.partial(
            seeded_manyflow_config, seed=seed, duration=sizes.phase_duration,
            warmup=sizes.phase_warmup)
        return {"make_config": make_config, "values": list(sizes.phase_cases),
                "configs": [make_config(case) for case in sizes.phase_cases]}
    if name == "sweep_backends":
        make_config = functools.partial(
            seeded_manyflow_config, seed=seed,
            duration=sizes.backend_duration, warmup=sizes.backend_warmup)
        paths = list(BACKEND_PATHS)
        order.shuffle(paths)
        return {"make_config": make_config, "values": list(sizes.backend_cases),
                "configs": [make_config(case) for case in sizes.backend_cases],
                "paths": paths}
    raise ValueError(f"unknown workload {name!r}; have {WORKLOADS}")


# ----------------------------------------------------------------------
# Outcome of one workload run
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    name: str
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    """The workload's end-to-end values (``packets_per_s``, ``points_per_s``)."""
    detail: dict[str, tuple[float, str]] = field(default_factory=dict)
    """Workload-specific numbers printed beside them: ``name -> (value, unit)``."""
    series: dict[str, dict[str, float]] = field(default_factory=dict)
    """Median / quartiles / count of every timing series."""
    stats: dict[str, object] = field(default_factory=dict)
    """Exact simulated statistics, compared with ``reference.json``."""
    problems: list[str] = field(default_factory=list)

    def fail_all(self, why: str) -> None:
        """A statistics mismatch taints every operation of the workload."""
        self.problems.append(why)
        self.failed = self.attempted


def measurements_digest(points: Sequence[scenarios.SweepPoint]) -> str:
    """SHA-256 over the canonical JSON of a sweep's points."""
    payload = [[list(point.value), point.measurements] for point in points]
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def total(points: Sequence[scenarios.SweepPoint], count: str) -> int:
    return int(sum(point.measurements[f"n:{count}"] for point in points))


def sweep_stats(points: Sequence[scenarios.SweepPoint]) -> dict[str, object]:
    stats: dict[str, object] = {
        name: total(points, name)
        for name in ("events", "packets", "drops", "timeouts", "retransmits")}
    stats["measurements_sha256"] = measurements_digest(points)
    return stats


def check_reference(outcome: Outcome, seed: int,
                    reference: dict | None) -> None:
    """Compare exact statistics with the committed reference.

    ``any_seed`` entries hold at every seed (the seed does not enter
    the dynamics of those runs); ``default_seed`` entries only at the
    seed the reference was captured with.  At any other seed the check
    that remains is the self-consistency the workload already made
    across its passes and paths.
    """
    if reference is None:
        return
    entry = reference.get(outcome.name, {})
    expected = dict(entry.get("any_seed", {}))
    if seed == reference.get("seed"):
        expected.update(entry.get("default_seed", {}))
    for key, value in expected.items():
        if outcome.stats.get(key) != value:
            outcome.fail_all(f"{key}: got {outcome.stats.get(key)!r}, "
                             f"reference has {value!r}")
            return


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


# ----------------------------------------------------------------------
# paper_figures and population: a scenario list through scenarios.run
# ----------------------------------------------------------------------
def _run_one(config: ScenarioConfig, label: str,
             recorder: SpanRecorder | None):
    """``(counts, result_or_None)`` of one scenario.

    Untraced, this is ``scenarios.run``.  Traced, the same two steps
    ``run`` performs are called separately so each gets its own span.
    """
    if recorder is None:
        result = scenarios.run(config)
        return run_counts(result.connections, result.traces,
                          result.events_processed), result
    with recorder.span("scenarios.run", run=label) as outer:
        with recorder.span("scenarios.build"):
            built = scenarios.build(config)
        with recorder.span("Simulator.run") as inner:
            built.sim.run(until=config.duration)
        counts = run_counts(built.connections, built.traces,
                            built.sim.events_processed)
        inner.counts.update(counts)
        outer.counts.update(counts)
    return counts, None


def run_scenario_list(name: str, inputs: dict, seconds: float,
                      machine: Machine,
                      recorder: SpanRecorder | None = None,
                      min_passes: int = 2) -> Outcome:
    """Run every case per pass, serially, in-process, uncached.

    Each scenario run is its own timed unit (bracketed by reference
    passes); a pass's time is the sum over its cases.
    """
    cases: list[tuple[str, ScenarioConfig]] = inputs["cases"]
    golden: dict | None = inputs.get("golden")
    outcome = Outcome(name)
    first_counts: dict[str, dict[str, int]] = {}
    golden_matches = 0

    def one_pass(index: int) -> tuple[float, float, int]:
        nonlocal golden_matches
        # Rotate so no case always runs first.
        shift = index % len(cases)
        ref_s = wall_s = 0.0
        packets = 0
        for label, config in cases[shift:] + cases[:shift]:
            unit_ref, unit_wall, (counts, result) = machine.timed(
                functools.partial(_run_one, config, label, recorder))
            ref_s += unit_ref
            wall_s += unit_wall
            outcome.attempted += 1
            packets += counts["packets"]
            if first_counts.setdefault(label, counts) != counts:
                outcome.problems.append(
                    f"{label}: pass {index} counted {counts}, "
                    f"first pass {first_counts[label]}")
                outcome.failed += 1
            if index == 0 and golden is not None and result is not None:
                recorded = golden.get(label, {}).get("sections")
                golden_matches += int(parity.section_hashes(result) == recorded)
        return ref_s, wall_s, packets

    passes = repeat_for(seconds, one_pass, min_samples=min_passes)
    outcome.series["pass_wall_s"] = summary([wall for _, wall, _ in passes])
    outcome.series["pass_ref_s"] = summary([ref for ref, _, _ in passes])
    outcome.metrics["packets_per_s"] = median(
        packets / ref for ref, _, packets in passes)
    outcome.metrics["points_per_s"] = median(
        len(cases) / ref for ref, _, _ in passes)
    outcome.detail["wall_packets_per_s"] = (
        median(packets / wall for _, wall, packets in passes), "1/s")
    for label, counts in sorted(first_counts.items()):
        for key, value in counts.items():
            outcome.stats[f"{label}.{key}"] = value
    for key in ("events", "packets", "drops", "timeouts", "retransmits"):
        outcome.stats[key] = sum(c[key] for c in first_counts.values())
    outcome.detail["events_per_packet"] = (
        outcome.stats["events"] / outcome.stats["packets"], "count")
    if golden is not None and recorder is None:
        outcome.stats["golden_fingerprints"] = f"{golden_matches}/{len(cases)}"
        if golden_matches != len(cases):
            outcome.fail_all(f"only {golden_matches}/{len(cases)} fingerprints "
                             "match tests/golden/parity.json")
    return outcome


# ----------------------------------------------------------------------
# Traced sweeps: progress events and cache calls become spans
# ----------------------------------------------------------------------
class TracedCache:
    """A ``cache=`` object that times ``get``/``put`` on a real cache.

    ``resolve_cache`` accepts anything with ``get`` and ``put``; the
    counters and the conflict hook the runner may touch are forwarded.
    """

    def __init__(self, cache: ResultCache, recorder: SpanRecorder) -> None:
        self._cache = cache
        self._recorder = recorder

    def get(self, key: str):
        with self._recorder.span("parallel.cache.get") as span:
            hit = self._cache.get(key)
            span.counts["hit"] = float(hit is not None)
            return hit

    def put(self, key: str, measurements: dict, config=None):
        with self._recorder.span("parallel.cache.put"):
            return self._cache.put(key, measurements, config=config)

    def quarantine_conflict(self, key: str, accepted: dict,
                            duplicate: dict) -> None:
        self._cache.quarantine_conflict(key, accepted, duplicate)

    def __getattr__(self, attribute: str):
        return getattr(self._cache, attribute)


def traced_sweep(recorder: SpanRecorder, label: str, make_config, values,
                 cache: ResultCache | None = None,
                 **keywords) -> list[scenarios.SweepPoint]:
    """One ``sweep()`` call as a span, with one child span per point.

    Point spans come from the public ``on_progress`` events: ``start``
    and ``finish`` where the path reports both, otherwise ``finish``
    minus the wall time the worker reported.  The worker-reported
    simulate time and event count are kept as counts, so what is left of
    a point's span is what the path adds around the simulation.
    """
    started: dict[int, tuple[float, str]] = {}
    sweep_span: Span
    mark = [0]

    def on_progress(progress: PointProgress) -> None:
        now = perf_counter()
        if progress.phase == "start":
            started[progress.index] = (now, progress.worker)
        elif progress.phase == "finish" and not progress.cached:
            begin, lane = started.pop(
                progress.index, (now - progress.wall_seconds, progress.worker))
            point = recorder.add(
                "parallel.point", begin, now, parent=sweep_span,
                run=f"{label}#{progress.index}",
                lane=lane or progress.worker or "main",
                simulate_s=progress.wall_seconds,
                events=progress.events_processed, attempts=progress.attempt)
            # What this process recorded since the last event (the
            # point's extract when it ran here, its cache.put) happened
            # on behalf of this point.
            for span in recorder.spans[mark[0]:-1]:
                if span.parent == sweep_span.ident and span.start >= point.start:
                    span.parent = point.ident
                    span.run = point.run
        mark[0] = len(recorder.spans)

    with recorder.span(f"sweep.{label}", run=label) as sweep_span:
        mark[0] = len(recorder.spans)
        points = scenarios.sweep(
            make_config, values, counted_sync_extract,
            cache=None if cache is None else TracedCache(cache, recorder),
            on_progress=on_progress, **keywords)
        sweep_span.counts["points"] = len(points)
    _add_cache_key_gap(recorder, sweep_span)
    return points


def _add_cache_key_gap(recorder: SpanRecorder, sweep_span: Span) -> None:
    """The runner hashes every config between building the last one and
    asking the cache for the first; that gap *is* the ``cache_key`` time
    (plus a few list operations), observed without patching the runner."""
    children = [s for s in recorder.spans[sweep_span.ident + 1:]
                if s.parent == sweep_span.ident]
    built = [s for s in children if s.name == "scenarios.make_config"]
    asked = [s for s in children if s.name == "parallel.cache.get"]
    if built and asked:
        recorder.add("parallel.cache_key", built[-1].end, asked[0].start,
                     parent=sweep_span, run=sweep_span.run,
                     keys=len(built))


def _sweep(recorder: SpanRecorder | None, label: str, make_config, values,
           cache: ResultCache | None = None, **keywords):
    if recorder is not None:
        return traced_sweep(recorder, label, make_config, values,
                            cache=cache, **keywords)
    return scenarios.sweep(make_config, values, counted_sync_extract,
                           cache=cache, **keywords)


def _bad_points(points: Sequence[scenarios.SweepPoint]) -> int:
    return sum(1 for point in points if point.measurements is None)


# ----------------------------------------------------------------------
# phase_sweep_cache
# ----------------------------------------------------------------------
#: Warm sweeps per timed unit: one warm pass is a few milliseconds, too
#: short to bracket on its own.
WARM_BATCH = 20


def run_phase_sweep_cache(inputs: dict, seconds: float, scratch: Scratch,
                          machine: Machine,
                          recorder: SpanRecorder | None = None,
                          sizes: Sizes = FULL, min_passes: int = 2) -> Outcome:
    """Cold passes into fresh cache dirs, then warm passes over one."""
    outcome = Outcome("phase_sweep_cache")
    make_config, values = inputs["make_config"], inputs["values"]
    n_points = len(values)
    digests: set[str] = set()
    filled: list[Path] = []

    def account(points, cache: ResultCache, hits: int, misses: int) -> None:
        outcome.attempted += n_points
        outcome.failed += _bad_points(points)
        digests.add(measurements_digest(points))
        if (cache.hits, cache.misses) != (hits, misses):
            outcome.problems.append(
                f"cache counted {cache.hits} hits / {cache.misses} misses, "
                f"expected {hits} / {misses}")
            outcome.failed += n_points

    def cold_pass(index: int) -> tuple[float, float]:
        root = scratch.mkdtemp("cold-")
        cache = ResultCache(root)
        ref_s, wall_s, points = machine.timed(functools.partial(
            _sweep, recorder, "cold", make_config, values, cache=cache,
            jobs=1))
        account(points, cache, hits=0, misses=n_points)
        outcome.stats.update(sweep_stats(points))
        filled.append(root)
        for stale in filled[:-1]:
            shutil.rmtree(stale, ignore_errors=True)
        del filled[:-1]
        return ref_s, wall_s

    def warm_batch(index: int) -> tuple[float, float]:
        caches = [ResultCache(filled[-1]) for _ in range(WARM_BATCH)]
        ref_s, wall_s, swept = machine.timed(lambda: [
            _sweep(recorder, "warm", make_config, values, cache=cache, jobs=1)
            for cache in caches])
        for points, cache in zip(swept, caches):
            account(points, cache, hits=n_points, misses=0)
        return ref_s / WARM_BATCH, wall_s / WARM_BATCH

    with recording(recorder):
        cold = repeat_for(seconds * (1.0 - sizes.warm_share), cold_pass,
                          min_samples=min_passes)
        warm = repeat_for(seconds * sizes.warm_share, warm_batch,
                          min_samples=min_passes)
    outcome.series["cold_pass_wall_s"] = summary([wall for _, wall in cold])
    outcome.series["cold_pass_ref_s"] = summary([ref for ref, _ in cold])
    outcome.series["warm_pass_wall_s"] = summary([wall for _, wall in warm])
    outcome.series["warm_pass_ref_s"] = summary([ref for ref, _ in warm])
    cold_rate = median(n_points / ref for ref, _ in cold)
    warm_rate = median(n_points / ref for ref, _ in warm)
    outcome.metrics["packets_per_s"] = (
        cold_rate * outcome.stats["packets"] / n_points)
    outcome.metrics["points_per_s"] = warm_rate
    outcome.detail["cold_points_per_s"] = (cold_rate, "1/s")
    outcome.detail["warm_points_per_s"] = (warm_rate, "1/s")
    outcome.detail["cache_speedup"] = (warm_rate / cold_rate, "x")
    outcome.detail["wall_cold_points_per_s"] = (
        median(n_points / wall for _, wall in cold), "1/s")
    outcome.detail["wall_warm_points_per_s"] = (
        median(n_points / wall for _, wall in warm), "1/s")
    if len(digests) != 1:
        outcome.fail_all(f"{len(digests)} different measurement digests "
                         "across cold and warm passes")
    return outcome


# ----------------------------------------------------------------------
# sweep_backends
# ----------------------------------------------------------------------
def run_sweep_backends(inputs: dict, seconds: float, machine: Machine,
                       recorder: SpanRecorder | None = None,
                       min_passes: int = 2) -> Outcome:
    """The same slice on serial, pool, supervised and fleet each round."""
    outcome = Outcome("sweep_backends")
    make_config, values = inputs["make_config"], inputs["values"]
    paths: list[str] = inputs["paths"]
    n_points = len(values)
    digests: set[str] = set()

    def one_round(index: int) -> dict[str, tuple[float, float]]:
        shift = index % len(paths)
        spent: dict[str, tuple[float, float]] = {}
        for path in paths[shift:] + paths[:shift]:
            ref_s, wall_s, points = machine.timed(functools.partial(
                _sweep, recorder, path, make_config, values,
                **BACKEND_PATHS[path]))
            spent[path] = (ref_s, wall_s)
            outcome.attempted += n_points
            outcome.failed += _bad_points(points)
            digests.add(measurements_digest(points))
            if path == "serial":
                outcome.stats.update(sweep_stats(points))
        return spent

    with recording(recorder):
        rounds = repeat_for(seconds, one_round, min_samples=min_passes)
    others = [path for path in BACKEND_PATHS if path != "serial"]
    outcome.metrics["packets_per_s"] = median(
        outcome.stats["packets"] / spent["serial"][0] for spent in rounds)
    outcome.metrics["points_per_s"] = median(
        len(others) * n_points / sum(spent[path][0] for path in others)
        for spent in rounds)
    for path in BACKEND_PATHS:
        outcome.series[f"{path}_wall_s"] = summary(
            [spent[path][1] for spent in rounds])
        outcome.series[f"{path}_ref_s"] = summary(
            [spent[path][0] for spent in rounds])
        outcome.detail[f"{path}_points_per_s"] = (
            median(n_points / spent[path][0] for spent in rounds), "1/s")
    for path in others:
        outcome.detail[f"{path}_speedup"] = (
            median(spent["serial"][0] / spent[path][0] for spent in rounds),
            "x")
        # What the path adds per point over an ideal split of the serial
        # work across its workers (computed, not timed directly).
        outcome.detail[f"{path}_overhead_s_per_point"] = (
            median((spent[path][0] - spent["serial"][0] / JOBS) / n_points
                   for spent in rounds), "s")
    if len(digests) != 1:
        outcome.fail_all(f"{len(digests)} different measurement digests "
                         "across the four paths and the rounds")
    return outcome


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
def run_workload(name: str, inputs: dict, seconds: float, scratch: Scratch,
                 machine: Machine, recorder: SpanRecorder | None = None,
                 sizes: Sizes = FULL, min_passes: int = 2) -> Outcome:
    """Run one workload for about ``seconds`` (at least ``min_passes``)."""
    if name in ("paper_figures", "population"):
        return run_scenario_list(name, inputs, seconds, machine, recorder,
                                 min_passes)
    if name == "phase_sweep_cache":
        return run_phase_sweep_cache(inputs, seconds, scratch, machine,
                                     recorder, sizes, min_passes)
    if name == "sweep_backends":
        return run_sweep_backends(inputs, seconds, machine, recorder,
                                  min_passes)
    raise ValueError(f"unknown workload {name!r}; have {WORKLOADS}")


def warm_up() -> None:
    """Let lazy imports and allocator arenas settle before timing."""
    config = families.manyflow_config((4, 20, 0.0), duration=20.0, warmup=5.0)
    counted_sync_extract(scenarios.run(config))
