"""Oracle: the packet size is a unit, not a dynamic.

``families.size_scaled(config, k)`` multiplies both packet sizes and
both bandwidths by ``k``.  Every transmission lasts ``size * 8 /
bandwidth``, which for a power-of-two ``k`` is the same float, and the
model counts buffers, windows and thresholds in packets: the scaled run
must process the same events at the same times, with bit-equal queue
lengths, windows, ACK arrivals, drops, sender counters and utilizations
— so the bottleneck's busy time is refereed too.  What is recorded in
bytes (the buffered bytes and each departure's size) must be the base
run's times ``k``.  A case that is not exact names the byte constant
responsible in ``DEVIATIONS``; none is known.
"""

import functools
from dataclasses import fields

import pytest

from repro.experiments.parity import fingerprint, parity_cases
from repro.scenarios import paper, run
from repro.scenarios.families import size_scaled
from tests.oracles.test_time_scaling import _short_config

K = 2

#: case -> the byte constant that makes the scaled run differ.  Such a
#: case must still differ; it is never skipped.
DEVIATIONS: dict[str, str] = {}


@functools.cache
def _observed(name: str, k: int) -> tuple[dict, dict]:
    """The fingerprint of the parity case scaled by ``k``, and what each
    bottleneck port recorded in bytes."""
    result = run(size_scaled(_short_config(name), k))
    recorded = {
        port: {"transmissions": monitor.transmissions,
               "byte_lengths": list(monitor.byte_lengths),
               "departures": monitor.departures}
        for port, monitor in sorted(result.traces.queues.items())}
    return fingerprint(result), recorded


def _multiplied(recorded: dict, k: int) -> dict:
    """``recorded`` with every byte count multiplied by ``k``."""
    return {port: {"transmissions": ports["transmissions"],
                   "byte_lengths": [(t, v * k) for t, v in ports["byte_lengths"]],
                   "departures": [d._replace(size=d.size * k)
                                  for d in ports["departures"]]}
            for port, ports in recorded.items()}


@pytest.mark.parametrize("name", [case.name for case in parity_cases()])
def test_size_scaled_run_is_the_base_run(name):
    base, base_bytes = _observed(name, 1)
    scaled, scaled_bytes = _observed(name, K)
    drifted = sorted(section for section in base
                     if scaled[section] != base[section])
    if scaled_bytes != _multiplied(base_bytes, K):
        drifted.append("bytes")
    if name in DEVIATIONS:
        assert drifted, f"{name} is exact now; drop its deviation"
        return
    assert drifted == []
    assert all(ports["departures"] for ports in base_bytes.values())


def test_transform_scales_every_size_and_rate_field():
    """Every ``*_bytes`` and ``*_bandwidth`` field is multiplied by k and
    every other field is kept; a new size field fails here until
    ``size_scaled`` reaches it."""
    config = paper.two_way(0.01)
    scaled = size_scaled(config, 4)
    owners = [(config, scaled), (config.tcp, scaled.tcp),
              *zip(config.flows, scaled.flows)]
    for before, after in owners:
        for field in fields(before):
            if field.name in ("tcp", "flows"):
                continue  # compared as owners of their own
            old, new = getattr(before, field.name), getattr(after, field.name)
            scaled_old = old * 4 if field.name.endswith(("_bytes", "_bandwidth")) else old
            assert new == scaled_old, field.name
