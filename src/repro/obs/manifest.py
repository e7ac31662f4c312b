"""Run manifests: per-run provenance documents.

A :class:`RunManifest` pins down *which* simulation produced a result:
the content hash of its :class:`~repro.scenarios.config.ScenarioConfig`
(the same canonical JSON the parallel result cache is keyed by), the
seed, the schema/ruleset versions of the producing tree, and — for runs
that actually executed — event counts, wall time and peak calendar
size.  Sweep points emit one manifest each, whether the measurements
came from a live simulation or a cache hit, so cached and live results
carry identical identity fields (``run_id`` / ``config_hash`` /
``cache_key``) and differ only in the ``source`` marker and the
execution statistics.

The ``run_id`` is deterministic — a prefix of the config hash plus the
seed — because a run here is a pure function of its config; re-running
the same scenario *is* the same run, and its telemetry should say so.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from repro.parallel.cache import (
    CACHE_SCHEMA_VERSION,
    PointIdentity,
    lint_ruleset_version,
)
from repro.scenarios.config import ScenarioConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.tracer import Tracer
    from repro.resilience.report import PointFailure

__all__ = ["MANIFEST_SOURCES", "OBS_SCHEMA_VERSION", "RunManifest",
           "build_manifest", "relativize_artifacts", "run_id_for",
           "write_manifest"]

#: Bump when the manifest or trace-record layout changes.
#: v2: ``attempts`` / ``failure`` fields and the ``journal`` / ``failed``
#: sources, added with the resilience layer.
#: v3: the ``algorithms`` field recording each flow's congestion-control
#: registry name, added with the pluggable-algorithm architecture (the
#: config hash changed canonical form at the same time; see
#: ``CACHE_SCHEMA_VERSION`` v2).
#: v4: the ``artifacts`` field — exported trace/metrics file paths are
#: recorded *relative to the manifest's own directory* so a results
#: directory can be moved, archived or mounted elsewhere without the
#: manifest's pointers going stale.
#: v5: the ``backend`` / ``worker`` provenance fields — which execution
#: backend ran the sweep and which worker (``agent0@host:pid`` for the
#: distributed backend, a process name locally) computed this point,
#: added with the pluggable-backend architecture.  Determinism makes
#: these debugging breadcrumbs, not identity: the same config computes
#: the same measurements on every host.
#: v6: the ``queue`` field recording the bottleneck discipline's registry
#: name, added with the queue-discipline registry (the config hash
#: changed canonical form at the same time; see ``CACHE_SCHEMA_VERSION``
#: v3).
OBS_SCHEMA_VERSION = 6

#: Where a point's measurements came from.  ``live`` simulated now,
#: ``cache`` replayed from the result cache, ``journal`` restored from a
#: resume journal, ``failed`` exhausted its retry budget (no measurements).
MANIFEST_SOURCES = ("live", "cache", "journal", "failed")


def run_id_for(config: ScenarioConfig) -> str:
    """The deterministic run identifier of ``config``."""
    return PointIdentity.of(config, "").run_id


@dataclass(frozen=True)
class RunManifest:
    """Provenance and execution statistics of one scenario run."""

    run_id: str
    scenario: str
    config_hash: str
    """SHA-256 of the canonical config JSON (the cache's addressing base)."""
    cache_key: str | None
    """Full parallel-cache key for the (config, extractor) pair, when an
    extractor is in play (sweep points); ``None`` for standalone runs."""
    seed: int
    source: str
    """``"live"`` (simulated now) or ``"cache"`` (replayed measurements)."""
    events_processed: int | None
    wall_seconds: float | None
    peak_calendar: int | None
    """Largest raw calendar size observed (requires a tracer; ``None``
    otherwise — the untraced engine does not pay for the bookkeeping)."""
    event_categories: dict[str, int] | None
    """Executed-event counts per handler category, when traced."""
    attempts: int = 1
    """How many execution attempts the point consumed (supervised sweeps
    retry failed points; an unsupervised run is always one attempt)."""
    algorithms: tuple[str, ...] = ()
    """The distinct congestion-control registry names the scenario's
    flows use, sorted (``("fixed",)``, ``("reno", "tahoe")``, ...)."""
    queue: str = "droptail"
    """The bottleneck queue discipline's registry name (``droptail``,
    ``randomdrop``, ``red``, ...)."""
    failure: dict[str, object] | None = None
    """The serialized :class:`~repro.resilience.report.PointFailure` for
    ``source == "failed"`` points; ``None`` everywhere else."""
    backend: str = "local"
    """The execution backend that ran the producing sweep (registry
    name: ``local``, ``worker``, ...)."""
    worker: str = ""
    """Which worker computed this point — ``agentN@host:pid`` on the
    distributed backend, a process name locally, empty for cache and
    journal replays."""
    artifacts: dict[str, str] = field(default_factory=dict)
    """Companion files this run exported (``chrome_trace``,
    ``prometheus``), keyed by kind.  Written manifests record these
    *relative to the manifest's directory* — see :func:`write_manifest`
    — so the whole results directory stays self-contained when moved."""
    obs_schema: int = OBS_SCHEMA_VERSION
    cache_schema: int = CACHE_SCHEMA_VERSION
    lint_ruleset: int = field(default_factory=lint_ruleset_version)

    def to_dict(self) -> dict[str, object]:
        """A JSON-compatible representation."""
        return asdict(self)


def build_manifest(
    config: ScenarioConfig,
    *,
    source: str = "live",
    events_processed: int | None = None,
    wall_seconds: float | None = None,
    tracer: "Tracer | None" = None,
    identity: PointIdentity | None = None,
    attempts: int = 1,
    failure: "PointFailure | None" = None,
    backend: str = "local",
    worker: str = "",
) -> RunManifest:
    """Assemble the manifest of one run of ``config``.

    ``identity`` is the sweep runner's name for the point, so
    :attr:`RunManifest.cache_key` is the very key its measurements are
    cached under; a standalone run has no extractor, hence no cache key,
    and is identified here.  Supervised sweeps report how many
    ``attempts`` the point consumed and, for ``source="failed"`` points,
    the structured ``failure`` record.
    """
    if source not in MANIFEST_SOURCES:
        raise ValueError(
            f"manifest source must be one of {'/'.join(MANIFEST_SOURCES)}, "
            f"got {source!r}")
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")
    peak = tracer.peak_calendar if tracer is not None else None
    categories = None
    if tracer is not None:
        categories = {name: stats.events
                      for name, stats in sorted(tracer.categories().items())}
    point = identity or PointIdentity.of(config, "")
    return RunManifest(
        run_id=point.run_id,
        scenario=config.name,
        config_hash=point.config_hash,
        cache_key=identity.key if identity is not None else None,
        seed=config.seed,
        source=source,
        events_processed=events_processed,
        wall_seconds=round(wall_seconds, 6) if wall_seconds is not None else None,
        peak_calendar=peak,
        event_categories=categories,
        attempts=attempts,
        algorithms=config.algorithms,
        queue=config.queue.name,
        failure=failure.to_dict() if failure is not None else None,
        backend=backend,
        worker=worker,
    )


def relativize_artifacts(
    artifacts: Mapping[str, str | Path],
    manifest_dir: str | Path,
) -> dict[str, str]:
    """Re-express artifact paths relative to ``manifest_dir``.

    Paths are stored POSIX-style (forward slashes) so a manifest written
    on one platform reads identically on another; paths on a different
    drive or otherwise unrelatable stay absolute rather than erroring.
    """
    base = Path(manifest_dir).resolve()
    relative: dict[str, str] = {}
    for kind in sorted(artifacts):
        resolved = Path(artifacts[kind]).resolve()
        try:
            rel = os.path.relpath(resolved, base)
        except ValueError:  # different drive on Windows
            rel = str(resolved)
        relative[kind] = Path(rel).as_posix()
    return relative


def write_manifest(
    manifest: RunManifest,
    path: str | Path,
    *,
    artifacts: Mapping[str, str | Path] | None = None,
) -> Path:
    """Write ``manifest`` as JSON.

    A directory path gets one ``<run_id>.manifest.json`` file per run
    inside it (created if needed); any other path is written directly.

    ``artifacts`` (and any paths already on ``manifest.artifacts``) are
    recorded relative to the written file's directory via
    :func:`relativize_artifacts`, so moving the results directory keeps
    the manifest's pointers valid.
    """
    target = Path(path)
    if target.is_dir() or not target.suffix:
        target.mkdir(parents=True, exist_ok=True)
        target = target / f"{manifest.run_id}.manifest.json"
    combined: dict[str, str | Path] = dict(manifest.artifacts)
    if artifacts:
        combined.update(artifacts)
    if combined:
        manifest = replace(
            manifest,
            artifacts=relativize_artifacts(combined, target.parent))
    with target.open("w") as handle:
        json.dump(manifest.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return target
