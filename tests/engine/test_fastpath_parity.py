"""Fast-path vs slow-path parity: both dispatch loops, same dynamics.

The simulator has a bare drain loop and an instrumented one that adds
the strict sanitizer and/or the tracer around each callback.  The
contract is that they differ only in *observation* — the simulated
dynamics must be bit-identical.  These tests pin that down with the
PR 5 parity fingerprints: one paper scenario run bare, then re-run
under each instrumentation combination (strict, traced — which also
attaches the tracer's port/link/connection observers — and both).
"""

import pytest

from repro.engine.sanitize import SANITIZE_ENV
from repro.experiments import parity
from repro.scenarios import paper, run


def _config():
    # Short figure-2 run: two-way Tahoe traffic exercises timers, loss
    # epochs, fast retransmit, and ack-compression — the full hook
    # surface — without steady-state run times.
    return paper.figure2(duration=60.0, warmup=20.0)


@pytest.fixture(scope="module")
def bare_hash():
    """Fingerprint of the bare fast path: no strict, no tracer."""
    return parity.fingerprint_hash(run(_config()))


def test_strict_traced_observed_run_is_bit_identical(bare_hash, monkeypatch):
    # Both instrumented-loop branches at once; trace=True also makes
    # the tracer attach port/link/connection observers, so the bound
    # fan-outs are live rather than None sentinels.
    monkeypatch.setenv(SANITIZE_ENV, "1")
    loaded = run(_config(), trace=True)
    assert loaded.tracer is not None
    assert parity.fingerprint_hash(loaded) == bare_hash


def test_traced_only_run_is_bit_identical(bare_hash, monkeypatch):
    monkeypatch.delenv(SANITIZE_ENV, raising=False)
    assert parity.fingerprint_hash(run(_config(), trace=True)) == bare_hash


def test_strict_only_run_is_bit_identical(bare_hash, monkeypatch):
    monkeypatch.setenv(SANITIZE_ENV, "1")
    assert parity.fingerprint_hash(run(_config())) == bare_hash
