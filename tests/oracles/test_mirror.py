"""Oracle: the dumbbell's two directions are one direction, mirrored.

``families.mirrored(config)`` swaps ``host1`` and ``host2`` on every
flow, so each connection runs the other way and the bottleneck ports
``sw1->sw2`` and ``sw2->sw1`` trade roles.  The builder makes both
directions alike and the jittered starts are drawn per flow, in flow
order, so the mirrored run must process the same events, with every
port's queue series, utilization, departures and drop records found on
the other port, and every connection's window, ACK and sender record
unchanged.  A case that is not exact names the asymmetry responsible in
``DEVIATIONS``; none is known.
"""

import functools
from dataclasses import fields

import pytest

from repro.experiments.parity import fingerprint, parity_cases
from repro.scenarios import FlowSpec, TopologyKind, paper, run
from repro.scenarios.families import mirrored
from tests.oracles.test_time_scaling import _short_config

#: The two bottleneck ports, each the other's mirror image.
PORTS = {"sw1->sw2": "sw2->sw1", "sw2->sw1": "sw1->sw2"}

#: case -> the asymmetry that makes the mirrored run differ.  Such a
#: case must still differ; it is never skipped.
DEVIATIONS: dict[str, str] = {}

#: How ``mirrored`` treats each ``FlowSpec`` field: the ends swap hosts,
#: everything else is kept.  A new field fails
#: ``test_every_flow_field_has_a_mirror_rule`` until it is listed here.
MIRROR_RULES = {"src": "swapped", "dst": "swapped", "algorithm": "kept",
                "params": "kept", "window": "kept", "start_time": "kept",
                "access_propagation": "kept"}

TWO_WAY_DUMBBELL = [
    case.name for case in parity_cases()
    if _short_config(case.name).topology is TopologyKind.DUMBBELL
    and {flow.src for flow in _short_config(case.name).flows} == {"host1", "host2"}]


@functools.cache
def _observed(name: str, mirror: bool) -> tuple[dict, dict]:
    """The fingerprint of the parity case, mirrored or not, and each
    bottleneck port's departures."""
    config = _short_config(name)
    result = run(mirrored(config) if mirror else config)
    departures = {port: monitor.departures
                  for port, monitor in sorted(result.traces.queues.items())}
    return fingerprint(result), departures


def _mirrored(base: dict, departures: dict) -> tuple[dict, dict]:
    """``base`` and ``departures`` with the two ports' names swapped."""
    return {
        **base,
        "utilizations": {PORTS[port]: u
                         for port, u in base["utilizations"].items()},
        "queues": {PORTS[port]: s for port, s in base["queues"].items()},
        "drops": [[row[0], PORTS[row[1]], *row[2:]] for row in base["drops"]],
    }, {PORTS[port]: rows for port, rows in departures.items()}


def test_the_two_way_dumbbell_cases_are_covered():
    assert TWO_WAY_DUMBBELL == ["figure3", "figure4", "figure6", "figure8",
                                "figure9", "zero-ack", "delayed-ack",
                                "reno-two-way"]


@pytest.mark.parametrize("name", TWO_WAY_DUMBBELL)
def test_mirrored_run_is_the_base_run_mirrored(name):
    expected, expected_departures = _mirrored(*_observed(name, False))
    actual, departures = _observed(name, True)
    drifted = sorted(section for section in expected
                     if actual[section] != expected[section])
    if departures != expected_departures:
        drifted.append("departures")
    if name in DEVIATIONS:
        assert drifted, f"{name} is exact now; drop its deviation"
        return
    assert drifted == []
    assert all(expected_departures.values())


def test_every_flow_field_has_a_mirror_rule():
    """``mirrored`` swaps the hosts of the fields ruled ``swapped`` and
    keeps the rest; a ``FlowSpec`` field with no rule fails here."""
    assert sorted(MIRROR_RULES) == sorted(field.name for field in fields(FlowSpec))
    config = paper.figure4()
    hosts = {"host1": "host2", "host2": "host1"}
    for before, after in zip(config.flows, mirrored(config).flows):
        for name, rule in MIRROR_RULES.items():
            old, new = getattr(before, name), getattr(after, name)
            assert new == (hosts[old] if rule == "swapped" else old), name
