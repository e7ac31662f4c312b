"""Oracle: time scaling is an exact symmetry of the simulator.

The paper's dynamics are dimensionless: they depend on the pipe size,
the buffers, the windows and the ACK-to-data size ratio, not on the unit
of time.  ``families.time_scaled(config, k)`` multiplies every bandwidth
by ``k`` and divides every time by ``k``; for a power-of-two ``k`` that
is exact in binary floating point, so the scaled run must process the
same events, at every original time divided by ``k``, with bit-equal
values, sender counters and utilizations.  A case that is not exact
names the absolute-time constant responsible in ``DEVIATIONS``; none is
known.
"""

import functools
import inspect
import typing
from dataclasses import fields

import pytest

from repro.experiments.parity import fingerprint, parity_cases
from repro.net.disciplines import DISCIPLINES, discipline_names
from repro.scenarios import FlowSpec, QueueSpec, ScenarioConfig, run
from repro.scenarios.families import _PARAM_TIMES, time_scaled
from repro.tcp import TcpOptions
from repro.tcp.congestion import ALGORITHMS, algorithm_names

SCALES = (0.5, 2.0)

#: Fingerprint sections whose records carry a simulated time.
TIMED_SECTIONS = ("queues", "cwnds", "acks", "drops")

#: ``(case, k)`` -> the absolute-time constant that makes the scaled run
#: differ.  Such a case must still differ; it is never skipped.
DEVIATIONS: dict[tuple[str, float], str] = {}

#: Float fields that count packets, not seconds or bits per second.
DIMENSIONLESS = {"TcpOptions.initial_cwnd", "TcpOptions.initial_ssthresh",
                 "TcpOptions.min_ssthresh"}

#: Float policy parameters that are ratios, probabilities, weights or
#: packet counts: AIMD's increase and decrease, RED's thresholds, drop
#: probability and averaging weight.
DIMENSIONLESS_PARAMS = {"a", "b", "min_th", "max_th", "max_p", "wq"}


@functools.cache
def _short_config(name: str) -> ScenarioConfig:
    """The parity case, shortened to 60 simulated seconds."""
    [case] = parity_cases([name])
    return case.build().with_updates(duration=60.0, warmup=20.0)


@functools.cache
def _base_fingerprint(name: str) -> dict:
    return fingerprint(run(_short_config(name)))


def _divided(base: dict, k: float) -> dict:
    """``base`` with every recorded time divided by ``k``."""
    def series(payload: dict) -> dict:
        return {"times": [t / k for t in payload["times"]],
                "values": payload["values"]}

    return {
        **base,
        "queues": {name: series(s) for name, s in base["queues"].items()},
        "cwnds": {conn: series(s) for conn, s in base["cwnds"].items()},
        "acks": {conn: [[t / k, ack] for t, ack in rows]
                 for conn, rows in base["acks"].items()},
        "drops": [[row[0] / k, *row[1:]] for row in base["drops"]],
    }


@pytest.mark.parametrize("k", SCALES)
@pytest.mark.parametrize("name", [case.name for case in parity_cases()])
def test_scaled_run_is_the_base_run_divided_by_k(name, k):
    scaled = fingerprint(run(time_scaled(_short_config(name), k)))
    expected = _divided(_base_fingerprint(name), k)
    drifted = sorted(section for section in expected
                     if scaled[section] != expected[section])
    if (name, k) in DEVIATIONS:
        assert drifted, f"{name} at k={k} is exact now; drop its deviation"
        return
    assert scaled["events_processed"] == expected["events_processed"]
    assert drifted == []
    assert set(TIMED_SECTIONS) <= set(expected)


def _float_fields(cls) -> list[str]:
    hints = typing.get_type_hints(cls)
    return [f"{cls.__name__}.{f.name}" for f in fields(cls)
            if float in typing.get_args(hints[f.name]) + (hints[f.name],)]


def _probe_config() -> ScenarioConfig:
    """A config whose every float field holds its own power of two."""
    values = iter(2.0 ** -i for i in range(1, 64))
    tcp = TcpOptions(**{f.name: 1.0 + next(values) for f in fields(TcpOptions)
                        if f"TcpOptions.{f.name}" in _float_fields(TcpOptions)
                        and f.name != "max_rto"}, max_rto=64.0)
    flow = FlowSpec(src="host1", dst="host2", algorithm="paced",
                    params={"pace_interval": next(values)}, window=4,
                    start_time=next(values), access_propagation=next(values))
    return ScenarioConfig(
        name="probe", flows=(flow,), tcp=tcp, duration=8.0, warmup=next(values),
        queue=QueueSpec("red", {"idle_pkt_time": next(values)}),
        **{f.name: next(values) for f in fields(ScenarioConfig)
           if f"ScenarioConfig.{f.name}" in _float_fields(ScenarioConfig)
           and f.name not in ("duration", "warmup")})


def test_transform_covers_every_time_and_rate_field():
    """Every float field is scaled by k or 1/k, or is a packet count; a
    new time field fails here until ``time_scaled`` reaches it."""
    config = _probe_config()
    scaled = time_scaled(config, 4.0)
    owners = [(config, scaled), (config.tcp, scaled.tcp),
              (config.flows[0], scaled.flows[0])]
    factors: dict[str, float] = {}
    for before, after in owners:
        for qualified in _float_fields(type(before)):
            attribute = qualified.partition(".")[2]
            old, new = getattr(before, attribute), getattr(after, attribute)
            factors[qualified] = new / old
    unscaled = {name for name, factor in factors.items() if factor == 1.0}
    assert unscaled == DIMENSIONLESS
    assert set(factors.values()) == {1.0, 4.0, 0.25}
    assert factors["ScenarioConfig.bottleneck_bandwidth"] == 4.0
    assert factors["ScenarioConfig.access_bandwidth"] == 4.0
    assert dict(scaled.flows[0].params)["pace_interval"] == (
        dict(config.flows[0].params)["pace_interval"] / 4.0)
    assert dict(scaled.queue.params)["idle_pkt_time"] == (
        dict(config.queue.params)["idle_pkt_time"] / 4.0)


@pytest.mark.parametrize("registry,name", [
    *(pytest.param(ALGORITHMS, name, id=f"algorithm-{name}")
      for name in algorithm_names()),
    *(pytest.param(DISCIPLINES, name, id=f"discipline-{name}")
      for name in discipline_names()),
])
def test_transform_covers_every_time_valued_policy_parameter(registry, name):
    """Every float keyword a registered algorithm or discipline takes is
    either divided by k (``_PARAM_TIMES``) or dimensionless; a new
    time-valued parameter fails here until ``time_scaled`` reaches it."""
    signature = inspect.signature(registry.factory(name), eval_str=True)
    floats = {parameter.name for parameter in signature.parameters.values()
              if float in (parameter.annotation,
                           *typing.get_args(parameter.annotation))}
    assert floats <= set(_PARAM_TIMES) | DIMENSIONLESS_PARAMS
