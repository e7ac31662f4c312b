"""Parallel sweep execution and the content-addressed result cache.

Public surface:

- :class:`~repro.parallel.runner.ParallelSweepRunner` — fans independent
  scenario runs over a worker pool, in deterministic input order.
- :class:`~repro.parallel.cache.ResultCache` — on-disk measurement cache
  keyed by the SHA-256 of the canonical config JSON.
- :func:`~repro.parallel.cache.cache_key` / helpers for addressing.

- :mod:`~repro.parallel.backends` — the execution backends
  (``local`` processes, the distributed ``worker`` fleet).
- :class:`~repro.parallel.cachestore.SharedCacheClient` /
  :class:`~repro.parallel.cachestore.SharedCacheServer` — one result
  cache shared by many sweep hosts over TCP.

The convenient entry points are the ``jobs=`` / ``cache=`` /
``backend=`` keywords on :func:`repro.scenarios.sweeps.sweep` and the
``repro sweep`` CLI command; this package is the machinery underneath.
"""

from repro.parallel.backends import (
    BackendRequest,
    LocalBackend,
    SweepBackend,
    WorkerBackend,
    resolve_backend,
)
from repro.parallel.cache import (
    CACHE_SCHEMA_VERSION,
    PointIdentity,
    ResultCache,
    cache_key,
    canonical_config_json,
    config_hash,
    default_cache_dir,
)
from repro.parallel.cachestore import SharedCacheClient, SharedCacheServer
from repro.parallel.progress import PointProgress
from repro.parallel.runner import ParallelSweepRunner, resolve_cache

__all__ = [
    "BackendRequest",
    "CACHE_SCHEMA_VERSION",
    "LocalBackend",
    "ParallelSweepRunner",
    "PointIdentity",
    "PointProgress",
    "ResultCache",
    "SharedCacheClient",
    "SharedCacheServer",
    "SweepBackend",
    "WorkerBackend",
    "cache_key",
    "canonical_config_json",
    "config_hash",
    "default_cache_dir",
    "resolve_backend",
    "resolve_cache",
]
