"""Fan sweep points out over a pluggable execution backend.

Every scenario here is deterministic and independent, which makes sweep
families embarrassingly parallel: the runner hands each
:class:`ScenarioConfig` to an execution backend (this host's processes
by default, a fleet of worker agents with ``backend="worker"``), runs
the caller's extractor next to the simulation so only small measurement
dicts travel back, and reassembles results in deterministic input order
regardless of completion order — or of which host computed what.

Combined with the content-addressed :class:`~repro.parallel.cache.ResultCache`
the runner skips simulation entirely for points it has seen before, so a
warm re-run of a benchmark sweep costs milliseconds.

The runner owns everything a sweep shares across backends — journal and
cache prefilters, retry accounting, manifests, telemetry, the
resilience report — and packs it into a
:class:`~repro.parallel.backends.base.BackendRequest`; backends own only
execution.  When a distributed backend raises
:class:`~repro.errors.BackendUnavailable` mid-sweep, the remaining
points degrade to the local backend, so a dead fleet costs locality,
never results.

One coordinator (:mod:`repro.parallel.backends.coordinator`) executes
every live point, whatever the backend and whatever ``jobs`` is; what
the ``resilience=`` policy changes is what a failed attempt means:

* **Plain** (``resilience=None``, the default): no deadlines, no
  retries, no report.  The first failed attempt — an exception in the
  extractor, a dead worker — fails the whole sweep, promptly, with a
  :class:`~repro.errors.ReproError` naming the point and the worker
  (``jobs=1`` chains the original exception as its cause).
* **Supervised** (``resilience=`` a
  :class:`~repro.resilience.policy.ResilienceConfig`, or any non-local
  backend): crashes are contained, per-point wall-clock timeouts are
  enforced wherever there is a process boundary to enforce them across,
  failed points retry with deterministic backoff, completed points are
  checkpointed to a :class:`~repro.resilience.journal.SweepJournal`,
  and failures are reported as structured
  :class:`~repro.resilience.report.PointFailure` records instead of
  dying.
"""

from __future__ import annotations

import warnings
from dataclasses import replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.engine.sanitize import SANITIZE_ENV, sanitize_enabled
from repro.errors import BackendUnavailable, ConfigurationError, SweepFailureError
from repro.parallel.backends import LocalBackend, resolve_backend
from repro.parallel.backends.base import BackendRequest
from repro.parallel.cache import PointIdentity, ResultCache, _extractor_fingerprint
from repro.parallel.progress import PointProgress
from repro.resilience.faults import active_plan, corrupt_entry_file
from repro.resilience.journal import JournalEntry, SweepJournal
from repro.resilience.policy import ResilienceConfig, resolve_resilience
from repro.resilience.report import (
    AttemptRecord,
    PointFailure,
    ResilienceReport,
)
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.runner import ScenarioResult

__all__ = ["ParallelSweepRunner", "PointProgress", "resolve_cache"]


def resolve_cache(cache) -> ResultCache | None:
    """Normalize the user-facing ``cache=`` argument.

    ``None``/``False`` disable caching, ``True`` uses the default cache
    directory, a path opens a cache there, a ``tcp://host:port`` URL
    connects to a shared ``repro cache serve`` store, and a
    :class:`ResultCache` (or compatible client) is used as-is.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return ResultCache()
    if isinstance(cache, ResultCache):
        return cache
    if isinstance(cache, str) and cache.startswith("tcp://"):
        from repro.parallel.cachestore import SharedCacheClient

        return SharedCacheClient.from_url(cache)
    if hasattr(cache, "get") and hasattr(cache, "put") and not isinstance(
            cache, (str, Path)):
        return cache
    return ResultCache(cache)


class ParallelSweepRunner:
    """Executes families of independent scenarios, optionally in parallel,
    through the result cache, and under fault-tolerant supervision.

    Parameters
    ----------
    jobs:
        Worker process count.  ``1`` runs everything serially in-process
        (no pickling requirements); more spawns that many long-lived
        workers once per sweep and feeds them one point at a time.
    cache:
        Anything :func:`resolve_cache` accepts.
    resilience:
        Anything :func:`~repro.resilience.policy.resolve_resilience`
        accepts: ``None``/``False`` (default) keeps the unsupervised hot
        paths, ``True`` supervises with default policy, and a
        :class:`~repro.resilience.policy.ResilienceConfig` sets timeout,
        retry, journal and partial-result behaviour.  After a supervised
        run, :attr:`last_report` holds the sweep's
        :class:`~repro.resilience.report.ResilienceReport`.
    backend:
        Anything :func:`~repro.parallel.backends.resolve_backend`
        accepts: ``None`` (default) runs on this host, a registered name
        (``"local"``, ``"worker"``) resolves through the backend
        registry, and a :class:`~repro.parallel.backends.base.
        SweepBackend` instance is used as-is.  Non-local backends always
        run supervised — a default policy is adopted when none is set —
        and degrade to the local backend if they become unavailable
        mid-sweep.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache=None,
        resilience: ResilienceConfig | bool | None = None,
        backend=None,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)
        self.cache = resolve_cache(cache)
        self.resilience = resolve_resilience(resilience)
        self.backend = backend
        self.last_report: ResilienceReport | None = None
        if self.cache is not None and sanitize_enabled():
            warnings.warn(
                f"{SANITIZE_ENV}=1 with the result cache enabled: sanitized "
                "runs are slower, and cache hits skip the sanitizer entirely "
                "(they replay stored measurements). Disable the cache to "
                "sanitize every point, or unset the env var for timing runs.",
                RuntimeWarning,
                stacklevel=2,
            )

    # ------------------------------------------------------------------
    # Core
    # ------------------------------------------------------------------
    def run_configs(
        self,
        configs: Sequence[ScenarioConfig],
        extract: Callable[[ScenarioResult], dict],
        on_point: Callable[[int, dict], None] | None = None,
        on_progress: Callable[[PointProgress], None] | None = None,
        manifest_dir: str | Path | None = None,
        telemetry=None,
    ) -> list[dict]:
        """Measurements for each config, in input order.

        ``on_point(index, measurements)`` fires as each point becomes
        available — journal restorations and cache hits first, then
        simulations in completion order — so long sweeps can report
        progress.  ``on_progress`` additionally receives
        :class:`PointProgress` notifications carrying worker identity,
        timing and attempt counts.

        ``telemetry`` (a :class:`~repro.obs.metrics.SweepTelemetry`)
        turns the sweep metered: every live point runs with
        ``metrics=True`` and ships its registry snapshot back for
        aggregation, progress events and cache/journal/report counters
        feed the accumulator, and the caller persists the resulting
        document (``repro sweep --telemetry`` / ``--live``).  Cache and
        journal hits replay stored measurements without simulating, so
        they count toward the hit ratio but not the per-flow
        aggregates.

        ``manifest_dir`` writes one ``<run_id>.manifest.json`` per point
        into that directory; all sources carry identical identity fields
        (``run_id`` / ``config_hash`` / ``cache_key``) and differ in
        ``source`` (``live``/``cache``/``journal``/``failed``), the
        execution statistics, and — under supervision — ``attempts``
        and ``failure``.

        Under supervision, points that exhaust their retry budget leave
        ``None`` in the result list; unless the policy sets
        ``allow_partial`` the sweep then raises
        :class:`~repro.errors.SweepFailureError` (which still carries the
        partial results).  Either way :attr:`last_report` describes every
        attempt.
        """
        for config in configs:
            if not isinstance(config, ScenarioConfig):
                raise ConfigurationError("make_config must return a ScenarioConfig")

        backend = resolve_backend(self.backend)
        results: list[dict | None] = [None] * len(configs)
        cache = self.cache
        policy = self.resilience
        if backend.name != "local" and policy is None:
            # Distributed execution is pointless without supervision:
            # leases, retries and the report all hang off the policy.
            policy = ResilienceConfig()
        metered = telemetry is not None
        if metered:
            telemetry.points = len(configs)
            cache_base = ((cache.hits, cache.misses, cache.quarantined)
                          if cache is not None else (0, 0, 0))
        fault_plan = active_plan().resolve(len(configs))
        report = ResilienceReport(points=len(configs),
                                  backend=backend.name) if policy else None
        self.last_report = report

        journal: SweepJournal | None = None
        owns_journal = False
        journal_entries: dict[str, JournalEntry] = {}
        # Identify every point once, up front: one extractor fingerprint
        # per sweep, one serialisation per config (a plain sweep: none).
        identities: list[PointIdentity] = []
        if cache is not None or policy is not None or manifest_dir is not None:
            fingerprint = _extractor_fingerprint(extract)
            identities = [PointIdentity.of(config, fingerprint)
                          for config in configs]
        if policy is not None and policy.journal is not None:
            if isinstance(policy.journal, SweepJournal):
                journal = policy.journal
            else:
                journal = SweepJournal(policy.journal)
                owns_journal = True
            journal_entries = journal.load()

        unreachable = {"warned": False}

        def cache_for(index: int) -> ResultCache | None:
            """The cache to use for one point — ``None`` under an
            injected ``cache-unreachable`` partition."""
            if cache is None:
                return None
            if fault_plan and fault_plan.cache_unreachable(index):
                if not unreachable["warned"]:
                    warnings.warn(
                        "injected cache-unreachable fault: skipping cache "
                        "reads and writes for the faulted point(s); the "
                        "journal remains the source of truth",
                        RuntimeWarning, stacklevel=3)
                    unreachable["warned"] = True
                return None
            return cache

        def emit(progress: PointProgress) -> None:
            if telemetry is not None:
                telemetry.on_progress(progress)
            if on_progress is not None:
                on_progress(progress)

        def write_point_manifest(index: int, *, source: str,
                                 events: int | None = None,
                                 wall: float | None = None,
                                 attempts: int = 1,
                                 worker: str = "",
                                 failure: PointFailure | None = None) -> None:
            if manifest_dir is None:
                return
            # Lazy: obs sits above this layer (its manifest module keys
            # off repro.parallel.cache).
            from repro.obs.manifest import build_manifest, write_manifest

            write_manifest(
                build_manifest(configs[index], identity=identities[index],
                               source=source, events_processed=events,
                               wall_seconds=wall, attempts=attempts,
                               failure=failure, backend=backend.name,
                               worker=worker),
                manifest_dir,
            )

        def checkpoint(index: int, measurements: dict, source: str,
                       attempts: int = 1) -> None:
            if journal is None:
                return
            journal.record(JournalEntry(
                **identities[index]._asdict(), index=index, attempts=attempts,
                source=source, measurements=measurements))
            if telemetry is not None:
                telemetry.record_journal_append()

        def complete(index: int, measurements: dict, worker: str,
                     wall_seconds: float, events: int,
                     attempts: int = 1, snapshot: dict | None = None) -> None:
            results[index] = measurements
            if telemetry is not None:
                telemetry.fold_point(index, snapshot)
            point_cache = cache_for(index)
            if point_cache is not None:
                entry_path = point_cache.put(identities[index].key,
                                             measurements,
                                             config=configs[index])
                if (entry_path is not None and fault_plan
                        and fault_plan.corrupts(index)):
                    corrupt_entry_file(entry_path)
            checkpoint(index, measurements, "live", attempts)
            if report is not None:
                report.live += 1
                if attempts > 1:
                    report.attempts_by_index[index] = attempts
            if on_point is not None:
                on_point(index, measurements)
            write_point_manifest(index, source="live", events=events,
                                 wall=wall_seconds, attempts=attempts,
                                 worker=worker)
            emit(PointProgress(index=index, phase="finish", cached=False,
                               worker=worker, wall_seconds=wall_seconds,
                               events_processed=events, attempt=attempts))

        def conflict(index: int, accepted: dict, duplicate: dict) -> None:
            """An at-least-once duplicate disagreed with the accepted
            payload: quarantine both cache copies and report loudly —
            scenarios are pure functions of their config, so a conflict
            means nondeterminism or corruption, and neither copy can be
            trusted by future runs."""
            if report is not None:
                report.conflicts += 1
            point_cache = cache_for(index)
            key = identities[index].key
            if point_cache is not None:
                point_cache.quarantine_conflict(key, accepted, duplicate)
            warnings.warn(
                f"sweep point {index}: duplicate completion disagreed with "
                "the accepted measurements; both payloads quarantined "
                f"(key {key[:12]}…)",
                RuntimeWarning, stacklevel=3)

        histories: dict[int, list[AttemptRecord]] = {}

        def attempt_failed(index: int, attempt: int, outcome: str,
                           wall_seconds: float, detail: str,
                           worker: str) -> float | None:
            """Record one failed attempt.

            Returns the backoff delay when the point gets another try,
            or ``None`` when the failure is terminal (the point is then
            reported as a :class:`PointFailure` and left unmeasured).
            """
            histories.setdefault(index, []).append(AttemptRecord(
                attempt=attempt, outcome=outcome,
                wall_seconds=round(wall_seconds, 6), detail=detail))
            report.count_attempt_outcome(outcome)
            if attempt < policy.max_attempts:
                report.retries += 1
                emit(PointProgress(index=index, phase="retry",
                                   attempt=attempt, worker=worker,
                                   wall_seconds=wall_seconds))
                return policy.backoff_delay(identities[index].key, attempt)
            failure = PointFailure(
                index=index, run_id=identities[index].run_id,
                config_hash=identities[index].config_hash,
                scenario=configs[index].name, attempts=attempt, kind=outcome,
                message=detail, history=tuple(histories[index]))
            report.failures.append(failure)
            report.attempts_by_index[index] = attempt
            write_point_manifest(index, source="failed", attempts=attempt,
                                 worker=worker, failure=failure)
            emit(PointProgress(index=index, phase="fail", attempt=attempt,
                               worker=worker, wall_seconds=wall_seconds))
            return None

        pending = list(range(len(configs)))

        if journal_entries:
            remaining = []
            for index in pending:
                entry = journal_entries.get(identities[index].key)
                if entry is None:
                    remaining.append(index)
                    continue
                results[index] = entry.measurements
                if report is not None:
                    report.journal_skips += 1
                if on_point is not None:
                    on_point(index, entry.measurements)
                write_point_manifest(index, source="journal",
                                     attempts=entry.attempts)
                emit(PointProgress(index=index, phase="finish", cached=True,
                                   worker="journal"))
            pending = remaining

        if cache is not None:
            remaining = []
            for index in pending:
                point_cache = cache_for(index)
                hit = (point_cache.get(identities[index].key)
                       if point_cache is not None else None)
                if hit is None:
                    remaining.append(index)
                    continue
                results[index] = hit
                if report is not None:
                    report.cache_hits += 1
                checkpoint(index, hit, "cache")
                if on_point is not None:
                    on_point(index, hit)
                write_point_manifest(index, source="cache")
                emit(PointProgress(index=index, phase="finish",
                                   cached=True, worker="cache"))
            pending = remaining

        request = BackendRequest(
            pending=pending,
            configs=configs,
            extract=extract,
            jobs=min(self.jobs, len(pending)) if pending else 0,
            complete=complete,
            emit=emit,
            policy=policy,
            attempt_failed=attempt_failed if policy is not None else None,
            fault_plan=fault_plan,
            metered=metered,
            report=report,
            conflict=conflict,
        )
        try:
            if pending:
                try:
                    backend.execute(request)
                except BackendUnavailable as exc:
                    if isinstance(backend, LocalBackend):
                        raise
                    failed_indices = ({failure.index for failure
                                       in report.failures}
                                      if report is not None else set())
                    remaining = [index for index in pending
                                 if results[index] is None
                                 and index not in failed_indices]
                    warnings.warn(
                        f"sweep backend {backend.name!r} became unavailable "
                        f"({exc}); degrading {len(remaining)} remaining "
                        "point(s) to local execution",
                        RuntimeWarning, stacklevel=2)
                    if report is not None:
                        report.degraded_points += len(remaining)
                    if remaining:
                        LocalBackend().execute(replace(
                            request, pending=remaining,
                            jobs=min(self.jobs, len(remaining))))
        finally:
            if journal is not None and owns_journal:
                journal.close()
            if telemetry is not None:
                if cache is not None:
                    telemetry.record_cache(
                        cache.hits - cache_base[0],
                        cache.misses - cache_base[1],
                        cache.quarantined - cache_base[2])
                telemetry.record_report(report)

        if report is not None and report.failures and not policy.allow_partial:
            raise SweepFailureError(report.failures, results)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Sweep-shaped front end
    # ------------------------------------------------------------------
    def run(
        self,
        make_config: Callable[[object], ScenarioConfig],
        values: Iterable[object],
        extract: Callable[[ScenarioResult], dict],
        on_point: Callable | None = None,
        on_progress: Callable[[PointProgress], None] | None = None,
        manifest_dir: str | Path | None = None,
        telemetry=None,
    ) -> list:
        """Run ``make_config(v)`` for each value; the parallel ``sweep()``.

        Returns :class:`~repro.scenarios.sweeps.SweepPoint` objects in
        input order.  ``on_point`` receives each finished ``SweepPoint``;
        ``on_progress`` and ``manifest_dir`` behave as in
        :meth:`run_configs`.  Under an ``allow_partial`` policy, failed
        points come back with ``measurements=None``.
        """
        from repro.scenarios.sweeps import SweepPoint

        values = list(values)
        if not values:
            raise ConfigurationError("sweep needs at least one value")
        configs = [make_config(value) for value in values]

        wrapped = None
        if on_point is not None:
            def wrapped(index: int, measurements: dict) -> None:
                on_point(SweepPoint(value=values[index], measurements=measurements))

        measurements = self.run_configs(configs, extract, on_point=wrapped,
                                        on_progress=on_progress,
                                        manifest_dir=manifest_dir,
                                        telemetry=telemetry)
        return [SweepPoint(value=value, measurements=m)
                for value, m in zip(values, measurements)]
