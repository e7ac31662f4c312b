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

The second relation reverses the flow list, which changes only the
order connections are created in, so their ids and the order of
same-instant events between them.  With every start explicit, every
parity case must process the same events, with every port's queue
series, utilization and drop sequence unchanged and every connection's
series found under its new id: connection ``i`` is ``n + 1 - i``,
except that flows with equal specs are interchangeable and keep their
creation rank.  Starts are made explicit two ways: each flow keeps the
start the base run drew, or every jittered start is 0 s, so the
connections tie at their first send.  ``REVERSAL_DEVIATIONS`` names
where creation order decides the dynamics.
"""

import functools
from dataclasses import fields, replace

import pytest

from repro.experiments.parity import fingerprint, parity_cases
from repro.scenarios import FlowSpec, ScenarioConfig, TopologyKind, build, paper, run
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


#: (case, starts) -> why the reversed run differs.  Such a pair must
#: still differ; it is never skipped.
REVERSAL_DEVIATIONS = {
    ("four-switch", "simultaneous"): (
        "six distinct flows start at 0 s on a chain: creation order decides "
        "who sends first at each shared port (21,228 against 22,286 events, "
        "first drop at 2.096 s against 2.262 s)"),
}
CASES = [case.name for case in parity_cases()]


def _explicit(config: ScenarioConfig, starts: str) -> ScenarioConfig:
    """``config`` with every flow's start explicit: the one the base run
    draws, or 0 s for every jittered start."""
    if starts == "drawn":
        times = [conn.start_time for conn in build(config).connections]
    else:
        times = [0.0 if flow.start_time is None else flow.start_time
                 for flow in config.flows]
    return replace(config, flows=tuple(
        replace(flow, start_time=time) for flow, time in zip(config.flows, times)))


def _reversed_ids(flows: tuple[FlowSpec, ...]) -> dict[str, str]:
    """Reversed run's connection id -> the base run's: ``i`` is
    ``n + 1 - i``, but equal flows keep their rank among themselves."""
    ranks: dict[FlowSpec, list[int]] = {}
    for conn_id, flow in enumerate(flows, start=1):
        ranks.setdefault(flow, []).append(conn_id)
    return {str(conn_id): str(ranks[flow].pop(0))
            for conn_id, flow in enumerate(reversed(flows), start=1)}


def _per_port(drops: list, ids: dict[str, str] | None = None) -> dict:
    """Drop rows per port, in order, connections renamed by ``ids``:
    same-instant rows on different ports are ordered by creation."""
    ports: dict[str, list] = {}
    for row in drops:
        conn_id = row[2] if ids is None else int(ids[str(row[2])])
        ports.setdefault(row[1], []).append([*row[:2], conn_id, *row[3:]])
    return ports


def test_every_reversal_deviation_is_run():
    assert {name for name, _ in REVERSAL_DEVIATIONS} <= set(CASES)


@pytest.mark.parametrize("starts", ["drawn", "simultaneous"])
@pytest.mark.parametrize("name", CASES)
def test_reversed_flow_list_is_the_base_run_renamed(name, starts):
    config = _explicit(_short_config(name), starts)
    base = fingerprint(run(config))
    flipped = fingerprint(run(replace(config, flows=config.flows[::-1])))
    ids = _reversed_ids(config.flows)
    renamed = {
        **flipped,
        "drops": _per_port(flipped["drops"], ids),
        **{section: {ids[conn_id]: record
                     for conn_id, record in flipped[section].items()}
           for section in ("cwnds", "acks", "senders")},
    }
    drifted = sorted(section for section in base if section != "drops"
                     and renamed[section] != base[section])
    if renamed["drops"] != _per_port(base["drops"]):
        drifted.append("drops")
    if (name, starts) in REVERSAL_DEVIATIONS:
        assert drifted, f"{name} ({starts}) is exact now; drop its deviation"
        return
    assert drifted == []
