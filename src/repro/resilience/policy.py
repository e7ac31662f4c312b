"""Retry policy: bounded attempts, exponential backoff, deterministic jitter.

A sweep point that dies — worker OOM-killed, wall-clock timeout, a
transient host hiccup — is retried a bounded number of times with an
exponentially growing delay.  The delay carries *jitter* so that many
points backing off at once do not re-dispatch in lockstep, but the
jitter is **deterministic**: it is derived by hashing the point's cache
key and the attempt number, never drawn from ``random`` (a sweep's
scheduling trace is as reproducible as its measurements, and the RPR001
lint rule bans ambient randomness from ``repro`` code outright).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Union

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.journal import SweepJournal

__all__ = ["ResilienceConfig", "deterministic_fraction", "resolve_resilience"]

#: Seconds before the first retry; each further retry doubles it.
BACKOFF_BASE = 0.25
#: The longest backoff, in seconds, before jitter.
BACKOFF_CAP = 5.0
#: Fractional spread added on top of the exponential delay.
JITTER = 0.5


def deterministic_fraction(*parts: object) -> float:
    """A reproducible pseudo-uniform draw in ``[0, 1)`` keyed by ``parts``.

    SHA-256 of the ``|``-joined string forms, so the value depends only
    on the inputs — identical across processes, platforms and
    ``PYTHONHASHSEED`` values (unlike ``hash()`` on strings).
    """
    blob = "|".join(str(part) for part in parts).encode()
    digest = hashlib.sha256(blob).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass(frozen=True)
class ResilienceConfig:
    """Fault-tolerance knobs for one sweep execution.

    Parameters
    ----------
    timeout:
        Per-point wall-clock budget in seconds; an attempt running
        longer is terminated and counted as a timeout failure.  ``None``
        (default) disables the limit.  Only enforceable on the
        supervised parallel path (``jobs > 1``) — a serial in-process
        attempt cannot be interrupted from outside.
    retries:
        Retries *after* the first attempt; ``retries=2`` allows three
        attempts total.
    journal:
        A :class:`~repro.resilience.journal.SweepJournal`, or a path to
        open one at.  Completed points are appended as they finish and
        skipped on the next run (``repro sweep --resume``).
    allow_partial:
        When ``True`` a sweep with failed points returns partial
        results (``None`` at the failed indices) instead of raising
        :class:`~repro.errors.SweepFailureError`.

    The delay before retry ``n`` is :meth:`backoff_delay`:
    ``min(BACKOFF_CAP, BACKOFF_BASE * 2**(n-1)) * (1 + JITTER * u)``,
    where ``u`` is a deterministic per-(point, attempt) fraction.
    """

    timeout: float | None = None
    retries: int = 2
    journal: Union["SweepJournal", str, Path, None] = None
    allow_partial: bool = False

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigurationError(
                f"timeout must be positive or None, got {self.timeout}")
        if self.retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {self.retries}")

    @property
    def max_attempts(self) -> int:
        """Total attempts a point is allowed (first run + retries)."""
        return self.retries + 1

    def backoff_delay(self, key: str, attempt: int) -> float:
        """Seconds to wait before re-running after failed attempt ``attempt``.

        ``key`` is the point's content address (its cache key), so the
        same point failing at the same attempt always backs off by the
        same amount — scheduling is part of the reproducible record.
        """
        if attempt < 1:
            raise ConfigurationError(f"attempt must be >= 1, got {attempt}")
        base = min(BACKOFF_CAP, BACKOFF_BASE * 2.0 ** (attempt - 1))
        return base * (1.0 + JITTER * deterministic_fraction(key, attempt))


def resolve_resilience(
    value: Union[ResilienceConfig, bool, None],
) -> ResilienceConfig | None:
    """Normalize the user-facing ``resilience=`` argument.

    ``None``/``False`` disable supervision (the fault-free hot path),
    ``True`` enables it with defaults, and a :class:`ResilienceConfig`
    is used as-is.
    """
    if value is None or value is False:
        return None
    if value is True:
        return ResilienceConfig()
    if isinstance(value, ResilienceConfig):
        return value
    raise ConfigurationError(
        f"resilience must be a ResilienceConfig, bool or None, "
        f"got {type(value).__name__}")
