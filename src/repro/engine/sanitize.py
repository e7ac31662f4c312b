"""Runtime invariant sanitizer — the dynamic half of the determinism checks.

The static rules in :mod:`repro.analysis.lint` catch determinism bugs
that are visible in source text; this module catches the ones that only
manifest at runtime, and is the *only* check for the invariants below
(lint rules RPR003 and RPR006 were retired for it).  When sanitizing is
on, the engine and the packet path verify on every operation:

- the virtual clock never moves backwards and no event fires in the
  past;
- a popped event still matches the ``(time, priority, sequence)`` its
  heap entry snapshotted at schedule time, so post-scheduling mutation
  of ordering fields is caught the moment it would matter;
- timestamps entering the heap are finite;
- every link conserves packets (``carried == delivered + in_flight``);
- every queue conserves packets and serves strictly FIFO among the
  packets that survive admission (drop-tail discards and Random Drop
  evictions excepted, as both disciplines specify).

Enable it per simulator with ``Simulator(strict=True)`` or globally
with the ``REPRO_SANITIZE=1`` environment variable (any of ``1``,
``true``, ``yes``, ``on``; case-insensitive).  Components constructed
around a strict simulator inherit its setting; free-standing queues
consult the environment.  A tripped invariant raises
:class:`~repro.errors.SanitizerError`.

Checking is side-effect-free: a sanitized run produces measurements
identical to an unsanitized one, just slower — which is why the sweep
runner warns when ``REPRO_SANITIZE=1`` is combined with the result
cache (see :mod:`repro.parallel.runner`).
"""

from __future__ import annotations

import os

from repro.errors import SanitizerError

__all__ = ["SANITIZE_ENV", "SanitizerError", "sanitize_enabled"]

#: Environment variable that switches sanitizing on process-wide.
SANITIZE_ENV = "REPRO_SANITIZE"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def sanitize_enabled() -> bool:
    """True when ``REPRO_SANITIZE`` requests strict mode.

    Read on each call (not cached) so tests can flip the environment
    per-case; object constructors capture the answer once at build time.
    """
    return os.environ.get(SANITIZE_ENV, "").strip().lower() in _TRUTHY
