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

Everything a sweep shares across backends — results, cache, journal,
retry accounting, manifests, the resilience report — is one
:class:`_Ledger`, which settles a point once whether the journal, the
cache or a simulation supplied it; backends get it in a
:class:`~repro.parallel.backends.base.BackendRequest` and own only
execution.  When one raises :class:`~repro.errors.BackendUnavailable`
mid-sweep, the remaining points degrade to the local backend, so a dead
fleet costs locality, never results.

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


class _Ledger:
    """One sweep's books: where every point is settled, exactly once.

    Owns what a sweep accumulates — results, report, point identities,
    cache, journal and manifest handles, the caller's progress callback
    — with one method per transition of a point: the runner calls
    :meth:`replay` and :meth:`unsettled`, the coordinator
    :meth:`started`, :meth:`settle`, :meth:`attempt_failed`,
    :meth:`duplicate`, :meth:`conflict` and :meth:`reclaimed`.  Parent
    process only: a ledger never crosses to a worker.
    """

    def __init__(self, configs: Sequence[ScenarioConfig],
                 extracts: Sequence[Callable], backend: str,
                 policy: ResilienceConfig | None, cache,
                 on_progress, manifest_dir) -> None:
        self.configs = configs
        self.policy = policy
        self.cache = cache
        self.on_progress = on_progress
        self.manifest_dir = manifest_dir
        self.results: list[dict | None] = [None] * len(configs)
        self.report = ResilienceReport(points=len(configs), backend=backend)
        self.fault_plan = active_plan()
        self.histories: dict[int, list[AttemptRecord]] = {}
        self._warned_unreachable = False
        # Identify every point once, up front: one fingerprint per
        # distinct extractor, one serialisation per config (a plain
        # sweep: none).
        self.identities: list[PointIdentity] = []
        if cache is not None or policy is not None or manifest_dir is not None:
            distinct = {id(extract): extract for extract in extracts}
            fingerprints = {key: _extractor_fingerprint(extract)
                            for key, extract in distinct.items()}
            self.identities = [
                PointIdentity.of(config, fingerprints[id(extract)])
                for config, extract in zip(configs, extracts)]
        journal = policy.journal if policy is not None else None
        self._owns_journal = (journal is not None
                              and not isinstance(journal, SweepJournal))
        self.journal: SweepJournal | None = (
            SweepJournal(journal) if self._owns_journal else journal)
        self.journal_entries: dict[str, JournalEntry] | None = (
            self.journal.load() if self.journal is not None else None)

    def _cache_for(self, index: int) -> ResultCache | None:
        """The cache to use for one point — ``None`` under an
        injected ``cache-unreachable`` partition."""
        if self.cache is None:
            return None
        if self.fault_plan and self.fault_plan.cache_unreachable(index):
            if not self._warned_unreachable:
                warnings.warn(
                    "injected cache-unreachable fault: skipping cache "
                    "reads and writes for the faulted point(s); the "
                    "journal remains the source of truth",
                    RuntimeWarning, stacklevel=3)
                self._warned_unreachable = True
            return None
        return self.cache

    def _emit(self, progress: PointProgress) -> None:
        if self.on_progress is not None:
            self.on_progress(progress)

    def _write_manifest(self, index: int, source: str, **provenance) -> None:
        if self.manifest_dir is None:
            return
        # Lazy: obs sits above this layer (its manifest module keys
        # off repro.parallel.cache).
        from repro.obs.manifest import build_manifest, write_manifest

        write_manifest(build_manifest(
            self.configs[index], identity=self.identities[index],
            source=source, backend=self.report.backend, **provenance),
            self.manifest_dir)

    def replay(self, pending: Sequence[int], source: str) -> list[int]:
        """Settle every pending point that ``source`` (``"journal"`` or
        ``"cache"``) already holds; returns the rest, in order."""
        remaining = []
        for index in pending:
            store = (self.journal_entries if source == "journal"
                     else self._cache_for(index))
            held = (store.get(self.identities[index].key)
                    if store is not None else None)
            if held is None:
                remaining.append(index)
            elif isinstance(held, JournalEntry):
                self.settle(index, held.measurements, source, source,
                            attempts=held.attempts)
            else:
                self.settle(index, held, source, source)
        return remaining

    def unsettled(self, pending: Sequence[int]) -> list[int]:
        """The pending points neither measured nor failed for good."""
        failed = {failure.index for failure in self.report.failures}
        return [index for index in pending
                if self.results[index] is None and index not in failed]

    def started(self, index: int, attempt: int, worker: str) -> None:
        """An attempt was handed to the process that will simulate it."""
        self._emit(PointProgress(index, "start", attempt=attempt, worker=worker))

    def settle(self, index: int, measurements: dict, source: str,
               worker: str, *, wall_seconds: float | None = None,
               events: int | None = None, attempts: int = 1) -> None:
        """A point has its measurements: from the ``"journal"``, the
        ``"cache"``, or ``"live"`` from ``worker`` with its statistics.
        Every sink hears of it here and nowhere else: results, the cache
        and journal that lack it, report, manifest, progress."""
        live = source == "live"
        self.results[index] = measurements
        if live:
            self.report.live += 1
            if attempts > 1:
                self.report.attempts_by_index[index] = attempts
            point_cache = self._cache_for(index)
            if point_cache is not None:
                entry_path = point_cache.put(self.identities[index].key,
                                             measurements,
                                             config=self.configs[index])
                if (entry_path is not None and self.fault_plan
                        and self.fault_plan.corrupts(index)):
                    corrupt_entry_file(entry_path)
        elif source == "cache":
            self.report.cache_hits += 1
        else:
            self.report.journal_skips += 1
        if self.journal is not None and source != "journal":
            self.journal.record(JournalEntry(
                **self.identities[index]._asdict(), index=index,
                attempts=attempts, source=source, measurements=measurements))
        self._write_manifest(index, source, events_processed=events,
                             wall_seconds=wall_seconds, attempts=attempts,
                             worker=worker if live else "")
        statistics = dict(wall_seconds=wall_seconds, events_processed=events,
                          attempt=attempts) if live else {}
        self._emit(PointProgress(index=index, phase="finish", cached=not live,
                                 worker=worker, measurements=measurements,
                                 **statistics))

    def attempt_failed(self, index: int, attempt: int, outcome: str,
                       wall_seconds: float, detail: str,
                       worker: str) -> float | None:
        """Record one failed attempt.

        Returns the backoff delay when the point gets another try,
        or ``None`` when the failure is terminal (the point is then
        reported as a :class:`PointFailure` and left unmeasured).
        """
        identity, report = self.identities[index], self.report
        self.histories.setdefault(index, []).append(AttemptRecord(
            attempt=attempt, outcome=outcome,
            wall_seconds=round(wall_seconds, 6), detail=detail))
        report.count_attempt_outcome(outcome)
        if attempt < self.policy.max_attempts:
            report.retries += 1
            self._emit(PointProgress(index=index, phase="retry",
                                     attempt=attempt, worker=worker,
                                     wall_seconds=wall_seconds))
            return self.policy.backoff_delay(identity.key, attempt)
        failure = PointFailure(
            index=index, run_id=identity.run_id,
            config_hash=identity.config_hash,
            scenario=self.configs[index].name, attempts=attempt, kind=outcome,
            message=detail, history=tuple(self.histories[index]))
        report.failures.append(failure)
        report.attempts_by_index[index] = attempt
        self._write_manifest(index, "failed", attempts=attempt, worker=worker,
                             failure=failure)
        self._emit(PointProgress(index=index, phase="fail", attempt=attempt,
                                 worker=worker, wall_seconds=wall_seconds))
        return None

    def duplicate(self, index: int) -> None:
        """A late result matched the accepted one, or the point had
        already failed for good: deduped."""
        self.report.duplicate_results += 1

    def conflict(self, index: int, accepted: dict, duplicate: dict) -> None:
        """An at-least-once duplicate disagreed with the accepted
        payload: quarantine both cache copies and report loudly —
        scenarios are pure functions of their config, so a conflict
        means nondeterminism or corruption, and neither copy can be
        trusted by future runs."""
        self.report.conflicts += 1
        point_cache = self._cache_for(index)
        key = self.identities[index].key
        if point_cache is not None:
            point_cache.quarantine_conflict(key, accepted, duplicate)
        warnings.warn(
            f"sweep point {index}: duplicate completion disagreed with "
            "the accepted measurements; both payloads quarantined "
            f"(key {key[:12]}…)",
            RuntimeWarning, stacklevel=3)

    def reclaimed(self, leases: int) -> None:
        """The coordinator took ``leases`` leases back from workers."""
        self.report.lease_reclaims += leases

    def close(self, *, close_cache: bool) -> None:
        """However the sweep ended: release what it opened."""
        if self.journal is not None and self._owns_journal:
            self.journal.close()
        if close_cache:
            self.cache.close()


class ParallelSweepRunner:
    """Executes families of independent scenarios, optionally in parallel,
    through the result cache, and under fault-tolerant supervision.

    Parameters
    ----------
    jobs:
        Worker process count.  ``1`` runs everything serially in-process
        (no pickling requirements); more starts that many long-lived
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
        accepts: ``None`` (default) runs on this host, a backend name
        (``"local"``, ``"worker"``) is looked up, and a
        :class:`~repro.parallel.backends.base.SweepBackend` instance is
        used as-is.  Non-local backends always run supervised — a
        default policy is adopted when none is set — and degrade to the
        local backend if they become unavailable mid-sweep.
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
        #: A store client opened here, from a URL, is closed here after
        #: each sweep (it reconnects on the next call).
        self._owns_cache = (self.cache is not cache
                            and hasattr(self.cache, "close"))
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
        extract: Callable[[ScenarioResult], dict]
        | Sequence[Callable[[ScenarioResult], dict]],
        on_progress: Callable[[PointProgress], None] | None = None,
        manifest_dir: str | Path | None = None,
    ) -> list[dict]:
        """Measurements for each config, in input order.

        ``extract`` measures every finished run, or is a sequence of
        extractors, one per config — how one sweep carries the points of
        several experiments.  Each point's cache key folds in its own
        extractor's fingerprint.

        The sweep's :class:`_Ledger` settles every point once, from the
        first source that has it.  ``on_progress`` receives
        :class:`PointProgress` notifications carrying worker identity,
        timing and attempt counts; a ``"finish"`` one, carrying the
        point's measurements, fires as each point is settled — journal
        restorations and cache hits first, then simulations in
        completion order — so long sweeps can report progress.

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
        extracts = ([extract] * len(configs) if callable(extract)
                    else list(extract))
        if len(extracts) != len(configs):
            raise ConfigurationError(
                f"{len(extracts)} extractors for {len(configs)} configs")

        backend = resolve_backend(self.backend)
        policy = self.resilience
        if backend.name != "local" and policy is None:
            # Distributed execution is pointless without supervision:
            # leases, retries and the report all hang off the policy.
            policy = ResilienceConfig()
        ledger = _Ledger(configs, extracts, backend.name, policy,
                         self.cache, on_progress, manifest_dir)
        report = ledger.report
        self.last_report = report if policy is not None else None
        try:
            pending = list(range(len(configs)))
            for source in ("journal", "cache"):
                pending = ledger.replay(pending, source)
            request = BackendRequest(
                pending=pending, configs=configs, extracts=extracts,
                jobs=min(self.jobs, len(pending)), ledger=ledger,
                policy=policy, fault_plan=ledger.fault_plan)
            if pending:
                try:
                    backend.execute(request)
                except BackendUnavailable as exc:
                    if isinstance(backend, LocalBackend):
                        raise
                    remaining = ledger.unsettled(pending)
                    warnings.warn(
                        f"sweep backend {backend.name!r} became unavailable "
                        f"({exc}); degrading {len(remaining)} remaining "
                        "point(s) to local execution",
                        RuntimeWarning, stacklevel=2)
                    report.degraded_points += len(remaining)
                    if remaining:
                        LocalBackend().execute(replace(
                            request, pending=remaining,
                            jobs=min(self.jobs, len(remaining))))
        finally:
            ledger.close(close_cache=self._owns_cache)

        if report.failures and not policy.allow_partial:
            raise SweepFailureError(report.failures, ledger.results)
        return ledger.results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Sweep-shaped front end
    # ------------------------------------------------------------------
    def run(
        self,
        make_config: Callable[[object], ScenarioConfig],
        values: Iterable[object],
        extract: Callable[[ScenarioResult], dict],
        on_progress: Callable[[PointProgress], None] | None = None,
        manifest_dir: str | Path | None = None,
    ) -> list:
        """Run ``make_config(v)`` for each value; the parallel ``sweep()``.

        Returns :class:`~repro.scenarios.sweeps.SweepPoint` objects in
        input order.  ``on_progress`` and ``manifest_dir`` behave as in
        :meth:`run_configs`.  Under an ``allow_partial`` policy, failed
        points come back with ``measurements=None``.
        """
        from repro.scenarios.sweeps import SweepPoint

        values = list(values)
        if not values:
            raise ConfigurationError("sweep needs at least one value")
        configs = [make_config(value) for value in values]
        measurements = self.run_configs(configs, extract,
                                        on_progress=on_progress,
                                        manifest_dir=manifest_dir)
        return [SweepPoint(value=value, measurements=m)
                for value, m in zip(values, measurements)]
