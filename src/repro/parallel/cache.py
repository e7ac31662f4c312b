"""Content-addressed on-disk cache for sweep measurements.

Simulations here are pure functions of their :class:`ScenarioConfig`, so
a finished run's extracted measurements can be keyed by the config alone:
the key is the SHA-256 of the canonical (sorted, compact) JSON form of
:func:`~repro.scenarios.serialize.config_to_dict`, prefixed with a cache
schema version.  Because the extractor decides *which* numbers are pulled
out of a run, its fingerprint (qualified name + source hash) is folded
into the key too — editing an extractor invalidates its entries without
touching anybody else's.  The source is read once per code object in a
process, so the edit takes effect where the edited code runs: in a new
process, or after the module is re-imported.  A process still running
the old code keeps filing under the old code's key.

Entries are single JSON files under ``~/.cache/repro`` (override with
``REPRO_CACHE_DIR`` or ``XDG_CACHE_HOME``), written atomically via a
temp-file rename so concurrent sweep workers never observe torn entries.
Bumping :data:`CACHE_SCHEMA_VERSION` orphans all old entries at once.
Reads distrust the disk anyway: an entry that fails validation — torn
bytes, foreign schema stamp, missing measurements — is moved to a
``quarantine/`` directory with a reason note and recomputed, never
returned and never silently destroyed.

A cache hit silently substitutes an old result for a re-run, so it is
only sound while the engine stays bit-for-bit deterministic.  Each
stored document therefore notes the :data:`~repro.analysis.lint.LINT_RULESET_VERSION`
the producing tree was checked against — a provenance breadcrumb for
debugging stale-looking entries (it does not affect the key; bump the
schema version to actually invalidate).
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import shutil
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

from repro.scenarios.config import ScenarioConfig
from repro.scenarios.serialize import config_to_dict

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "PointIdentity",
    "ResultCache",
    "cache_key",
    "canonical_config_json",
    "config_hash",
    "default_cache_dir",
]

#: Bump when the meaning of cached measurements changes (engine semantics,
#: serialization format, ...) to invalidate every existing entry.
#: v2: flows serialize an open ``algorithm`` name + ``params`` object
#: (pluggable congestion control) instead of the closed ``kind`` enum,
#: changing the canonical JSON every key is derived from.
#: v3: the bottleneck discipline serializes as an open ``queue`` object
#: (name + params against the queue-discipline registry) instead of the
#: ``random_drop`` boolean, and configs gain the generalized-dumbbell
#: fields (``n_left``/``n_right``, ``access_buffer_packets``, per-flow
#: ``access_propagation``) — the discipline identity is now part of
#: every key.
CACHE_SCHEMA_VERSION = 3


def lint_ruleset_version() -> int:
    """The linter's ruleset stamp, imported where a document is written:
    a module-level import would load the whole linter into every process
    that imports ``repro`` — each sweep worker and fleet agent — for this
    one integer."""
    from repro.analysis.lint.model import LINT_RULESET_VERSION

    return LINT_RULESET_VERSION


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``,
    else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


def canonical_config_json(config: ScenarioConfig) -> str:
    """The canonical JSON serialization used for content addressing.

    Sorted keys and compact separators make the byte stream independent
    of dict construction order, so equal configs always hash equally.
    """
    return json.dumps(config_to_dict(config), sort_keys=True,
                      separators=(",", ":"))


def _extractor_fingerprint(extract: Callable | None) -> str:
    """A stable identity for the measurement extractor.

    Module-level functions hash their qualified name plus source text, so
    renaming or editing the extractor invalidates its cache entries.  A
    :func:`functools.partial` adds its bound arguments to its function's
    fingerprint and a callable instance stands for its class, so neither
    is named by a ``repr()`` whose address changes with the process.  For
    objects without retrievable source, the qualified name alone is used.
    """
    if extract is None:
        return ""
    if isinstance(extract, functools.partial):
        keywords = sorted(extract.keywords.items())
        return f"{_extractor_fingerprint(extract.func)}({extract.args!r},{keywords!r})"
    named = extract if hasattr(extract, "__qualname__") else type(extract)
    name = f"{getattr(named, '__module__', '?')}.{named.__qualname__}"
    code = getattr(inspect.unwrap(named), "__code__", named)
    return _source_fingerprint(name, code, named)


@functools.lru_cache(maxsize=256)
def _source_fingerprint(name: str, code: object, named: Callable) -> str:
    """``name`` plus a hash of ``named``'s source, read once per code
    object that runs (a class stands for itself).  A code object never
    changes, so the text read when it is first seen describes the code
    that runs (unless the file was edited between import and that
    read), where a re-read would follow the file on disk, edited but
    not yet imported.  ``named`` — a function, or the class — is
    part of the key because code objects compare by value: a reloaded
    function whose code equals the old one's still gets its source read.
    """
    try:
        source = inspect.getsource(named)
    except (OSError, TypeError):
        source = ""
    digest = hashlib.sha256(source.encode()).hexdigest()[:16]
    return f"{name}:{digest}"


class PointIdentity(NamedTuple):
    """The three names of one sweep point, from one serialisation: the
    content address ``key`` of its (config, extractor) measurement set,
    the extractor-independent ``config_hash`` of the canonical config
    JSON that manifests record, and the ``run_id`` (hash prefix + seed)."""

    key: str
    config_hash: str
    run_id: str

    @classmethod
    def of(cls, config: ScenarioConfig, fingerprint: str) -> "PointIdentity":
        """Identify ``config`` given its extractor's fingerprint, which
        a sweep computes once for all its points."""
        document = canonical_config_json(config)
        digest = hashlib.sha256(document.encode()).hexdigest()
        blob = f"v{CACHE_SCHEMA_VERSION}|{document}|{fingerprint}"
        return cls(hashlib.sha256(blob.encode()).hexdigest(), digest,
                   f"{digest[:12]}-s{config.seed}")


def config_hash(config: ScenarioConfig) -> str:
    """SHA-256 of the canonical config JSON alone (one-shot)."""
    return PointIdentity.of(config, "").config_hash


def cache_key(config: ScenarioConfig, extract: Callable | None = None) -> str:
    """The content address of one (config, extractor) measurement set
    (one-shot)."""
    return PointIdentity.of(config, _extractor_fingerprint(extract)).key


class ResultCache:
    """On-disk measurement store addressed by :func:`cache_key`.

    Parameters
    ----------
    root:
        Cache directory; defaults to :func:`default_cache_dir`.  Created
        lazily on first write.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self._version_root = os.path.join(self.root, f"v{CACHE_SCHEMA_VERSION}")
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    # ------------------------------------------------------------------
    # Raw key interface
    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return Path(self._version_root, key[:2], f"{key}.json")

    def get(self, key: str) -> dict | None:
        """The stored measurements for ``key``, or ``None`` on a miss.

        Damaged entries — truncated or non-JSON bytes, a foreign schema
        stamp, a missing/mistyped measurements object, a zero-byte file
        (all of which a torn write, disk error or hand edit can leave
        behind) — are **quarantined**, not trusted and not silently
        deleted: the bytes move to :attr:`quarantine_dir` beside a
        ``.reason.txt`` note for post-mortem, a ``RuntimeWarning`` is
        emitted, and the read counts as a miss so the point is simply
        recomputed.
        """
        path = f"{self._version_root}/{key[:2]}/{key}.json"
        try:
            with open(path) as handle:
                raw = handle.read()
        except OSError:  # absent (the common miss) or unreadable
            self.misses += 1
            return None
        document: object = None
        if not raw.strip():
            damage: str | None = "zero-byte or blank entry"
        else:
            try:
                document = json.loads(raw)
                damage = None
            except ValueError as exc:
                damage = f"invalid JSON ({exc})"
        if damage is None:
            damage = self._entry_damage(document)
        if damage is not None:
            self._quarantine(Path(path), damage)
            self.misses += 1
            return None
        assert isinstance(document, dict)
        measurements = document["measurements"]
        assert isinstance(measurements, dict)
        self.hits += 1
        return measurements

    @staticmethod
    def _entry_damage(document: object) -> str | None:
        """Why a parsed entry document cannot be trusted (``None`` = fine)."""
        if not isinstance(document, dict):
            return f"entry is a JSON {type(document).__name__}, not an object"
        schema = document.get("schema")
        if schema != CACHE_SCHEMA_VERSION:
            return (f"schema stamp {schema!r} does not match "
                    f"CACHE_SCHEMA_VERSION {CACHE_SCHEMA_VERSION}")
        if not isinstance(document.get("measurements"), dict):
            return "measurements missing or not an object"
        return None

    @property
    def quarantine_dir(self) -> Path:
        """Where damaged entries are preserved for post-mortem."""
        return self.root / "quarantine"

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a damaged entry aside with a reason note, best-effort.

        Even when the cache tree turns out not to be writable the entry
        must not poison the sweep, so the fallback is plain removal.
        """
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            target = self.quarantine_dir / path.name
            path.replace(target)
            (self.quarantine_dir / f"{path.stem}.reason.txt").write_text(
                reason + "\n")
        except OSError:
            path.unlink(missing_ok=True)
        self.quarantined += 1
        warnings.warn(
            f"quarantined damaged cache entry {path.name} "
            f"({reason}); the point will be recomputed",
            RuntimeWarning,
            stacklevel=4,
        )

    def put(self, key: str, measurements: dict,
            config: ScenarioConfig | None = None) -> Path | None:
        """Store ``measurements`` under ``key`` (atomic write).

        The originating config document is stored alongside for
        debuggability (``repro``'s cache files are self-describing).

        Writes are **content-checked against the existing entry**, which
        is what makes at-least-once distributed execution safe:

        * No entry (or a damaged one) — write atomically, return the path.
        * An equal entry — dedupe: nothing is rewritten, the existing
          path is returned.  Two racing writers of the same payload both
          land here or both rename identical bytes; either way exactly
          one valid entry remains.
        * A **different** valid entry — conflict: simulations are pure
          functions of their config, so two payloads for one key mean
          nondeterminism or corruption.  *Both* payloads are quarantined
          (:meth:`quarantine_conflict`), no cache entry survives, and
          ``None`` is returned.
        """
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        existing = self._peek(path)
        if existing is not None:
            if existing == measurements:
                return path
            self.quarantine_conflict(key, existing, measurements)
            return None
        document = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "lint_ruleset": lint_ruleset_version(),
            "config": config_to_dict(config) if config is not None else None,
            "measurements": measurements,
        }
        text = json.dumps(document, indent=2)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            tmp.write_text(text)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        tmp.replace(path)
        return path

    def _peek(self, path: Path) -> dict | None:
        """The measurements stored at ``path``, without counters or
        quarantine side effects; ``None`` for absent or damaged entries
        (damage is :meth:`get`'s business — an overwrite fixes it)."""
        try:
            document = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if self._entry_damage(document) is not None:
            return None
        assert isinstance(document, dict)
        measurements = document["measurements"]
        assert isinstance(measurements, dict)
        return measurements

    def quarantine_conflict(self, key: str, accepted: dict,
                            duplicate: dict) -> None:
        """Quarantine *both* payloads of a conflicting double completion.

        The entry file (if any) moves to :attr:`quarantine_dir`; the
        conflicting payload is preserved beside it as
        ``<key>.conflict.json`` with a reason note.  Neither copy stays
        in the cache — a conflict means at least one of them is wrong,
        and there is no way to know which.
        """
        path = self._path(key)
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            if path.exists():
                path.replace(self.quarantine_dir / path.name)
            conflict_file = self.quarantine_dir / f"{key}.conflict.json"
            with conflict_file.open("w") as handle:
                json.dump({"key": key, "accepted": accepted,
                           "duplicate": duplicate}, handle, indent=2)
            (self.quarantine_dir / f"{key}.reason.txt").write_text(
                "conflicting duplicate completion: two different payloads "
                "for one content-addressed key\n")
        except OSError:
            path.unlink(missing_ok=True)
        self.quarantined += 1
        warnings.warn(
            f"quarantined conflicting cache payloads for {key[:12]}… "
            "(duplicate completion disagreed with the stored entry)",
            RuntimeWarning,
            stacklevel=3,
        )

    # ------------------------------------------------------------------
    # Config-level interface
    # ------------------------------------------------------------------
    def get_config(self, config: ScenarioConfig,
                   extract: Callable | None = None) -> dict | None:
        """Cached measurements for a (config, extractor) pair, if any."""
        return self.get(cache_key(config, extract))

    def put_config(self, config: ScenarioConfig, measurements: dict,
                   extract: Callable | None = None) -> Path | None:
        """Store measurements for a (config, extractor) pair."""
        return self.put(cache_key(config, extract), measurements, config=config)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        version_dir = Path(self._version_root)
        if not version_dir.is_dir():
            return 0
        return sum(1 for _ in version_dir.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry of the current schema; returns the count."""
        count = len(self)
        shutil.rmtree(self._version_root, ignore_errors=True)
        return count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ResultCache(root={str(self.root)!r}, entries={len(self)}, "
                f"hits={self.hits}, misses={self.misses}, "
                f"quarantined={self.quarantined})")
