"""Named sweep families: picklable config factories and extractors.

Parallel sweeps pickle the ``make_config`` products and the ``extract``
callable to worker processes, and the result cache fingerprints the
extractor's source.  Both want *module-level* functions — closures and
lambdas neither pickle nor fingerprint stably — so the sweep families
shared by the CLI (``repro sweep``), the benchmark suite and the tests live
here.  Partial application (``functools.partial``) of these functions is
picklable too and is the supported way to fix durations or seeds.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterable

from repro.errors import ConfigurationError
from repro.scenarios import paper
from repro.scenarios.config import (
    FlowParams,
    FlowSpec,
    ScenarioConfig,
    TopologyKind,
    substitute,
)
from repro.scenarios.runner import ScenarioResult
from repro.units import (
    ACCESS_PROPAGATION,
    LARGE_PIPE_PROPAGATION,
    SMALL_PIPE_PROPAGATION,
)

__all__ = [
    "CONJECTURE_CASES",
    "GRADED_CONJECTURE_CASES",
    "BUFFER_SIZES",
    "PHASE_CASES",
    "buffer_config",
    "buffer_duration",
    "conjecture_config",
    "manyflow_config",
    "mirrored",
    "phase_grid",
    "seeded",
    "size_scaled",
    "substituted",
    "time_scaled",
    "utilization_extract",
    "timeouts_extract",
    "sync_extract",
]

#: The Section 4.3.3 zero-ACK conjecture grid: (W1, W2, tau) with W1 >= W2.
#: Dense on both sides of the W1 = W2 + 2P boundary for both pipe sizes
#: (right buffer sizing and regime mapping need grids, not spot checks).
CONJECTURE_CASES: tuple[tuple[int, int, float], ...] = (
    (30, 25, SMALL_PIPE_PROPAGATION),
    (30, 5, SMALL_PIPE_PROPAGATION),
    (35, 20, SMALL_PIPE_PROPAGATION),
    (28, 14, SMALL_PIPE_PROPAGATION),
    (33, 11, SMALL_PIPE_PROPAGATION),
    (25, 10, SMALL_PIPE_PROPAGATION),
    (30, 25, LARGE_PIPE_PROPAGATION),
    (20, 18, LARGE_PIPE_PROPAGATION),
    (40, 10, LARGE_PIPE_PROPAGATION),
    (26, 25, LARGE_PIPE_PROPAGATION),
    (50, 10, LARGE_PIPE_PROPAGATION),
    (45, 15, LARGE_PIPE_PROPAGATION),
    (22, 20, LARGE_PIPE_PROPAGATION),
    (35, 30, LARGE_PIPE_PROPAGATION),
    (28, 26, LARGE_PIPE_PROPAGATION),
    (60, 20, LARGE_PIPE_PROPAGATION),
    (55, 5, LARGE_PIPE_PROPAGATION),
    (32, 28, LARGE_PIPE_PROPAGATION),
)

#: The six cases the ``conjecture`` and ``aimd_conjecture`` experiments
#: grade: the small pipe's two out-of-phase cases and four large-pipe
#: cases on both sides of the boundary.
GRADED_CONJECTURE_CASES: tuple[tuple[int, int, float], ...] = tuple(
    CONJECTURE_CASES[i] for i in (0, 1, 6, 7, 8, 9))

#: The Section 4.3.1 buffer grid showing flat two-way utilization.
BUFFER_SIZES: tuple[int, ...] = (20, 60, 120)


def phase_grid(
    ns: Iterable[int] = (2, 4, 8, 16, 32),
    buffers: Iterable[int] = (10, 40),
    spreads: Iterable[float] = (0.0, 1.0),
) -> tuple[tuple[int, int, float], ...]:
    """The ``(N, buffer, rtt_spread)`` phase-diagram grid, row-major."""
    return tuple((n, b, s) for n in ns for b in buffers for s in spreads)


#: The default population phase-diagram grid: N from 2 to 32 crossed
#: with small/large bottleneck buffers and homogeneous/spread RTTs.
PHASE_CASES: tuple[tuple[int, int, float], ...] = phase_grid()


# ----------------------------------------------------------------------
# Config factories (``make_config`` candidates)
# ----------------------------------------------------------------------
def conjecture_config(case: tuple[int, int, float],
                      duration: float = 150.0,
                      warmup: float = 100.0) -> ScenarioConfig:
    """A zero-ACK fixed-window run for one ``(w1, w2, tau)`` case."""
    w1, w2, tau = case
    return paper.zero_ack_fixed_window(w1, w2, tau,
                                       duration=duration, warmup=warmup)


def buffer_duration(buffers: int,
                    base_duration: float = 300.0,
                    base_warmup: float = 120.0) -> tuple[float, float]:
    """(duration, warmup) scaled to the buffer size.

    The two-way increase-decrease cycle grows ~linearly with the buffer
    (~230 s at B=120), so runs are stretched until steady state dominates.
    """
    scale = max(1.0, buffers / 24.0)
    return base_duration * scale, base_warmup * scale


def buffer_config(buffers: int,
                  base_duration: float = 300.0,
                  base_warmup: float = 120.0) -> ScenarioConfig:
    """The figure-4 two-way scenario at one buffer size, duration-scaled."""
    duration, warmup = buffer_duration(buffers, base_duration, base_warmup)
    return paper.figure4(buffer_packets=buffers,
                         duration=duration, warmup=warmup)


def _manyflow_flows(
    n: int,
    rtt_spread: float,
    stagger: float,
) -> tuple[FlowSpec, ...]:
    """N left-to-right flows with staggered starts and an RTT spread.

    Flow ``i`` (1-based) runs ``host{i} -> host{n+i}`` on an ``n × n``
    dumbbell.  ``rtt_spread`` stretches the source access propagation
    linearly across the population — flow ``n`` sees
    ``(1 + rtt_spread)×`` the base access delay — so ``0.0`` keeps the
    homogeneous-RTT ensemble and ``1.0`` doubles the slowest flow's
    access leg.
    """
    flows = []
    for i in range(n):
        if rtt_spread > 0.0 and n > 1:
            factor = 1.0 + rtt_spread * i / (n - 1)
            access = ACCESS_PROPAGATION * factor
        else:
            access = None
        flows.append(FlowSpec(
            src=f"host{i + 1}",
            dst=f"host{n + i + 1}",
            start_time=i * stagger,
            access_propagation=access,
        ))
    return tuple(flows)


def manyflow_config(case: tuple[int, int, float],
                    duration: float = 300.0,
                    warmup: float = 120.0,
                    stagger: float = 0.5) -> ScenarioConfig:
    """An N-flow dumbbell population for one ``(n, buffer, rtt_spread)``
    case — the phase-diagram family.

    N Tahoe flows cross the same bottleneck left-to-right, starts
    staggered ``stagger`` seconds apart (deterministic, not jittered —
    sweep points must be pure functions of the case tuple), with the
    RTT spread stretched across the population via per-flow access
    propagation overrides.
    """
    n, buffers, rtt_spread = case
    return ScenarioConfig(
        name=f"manyflow-N{n}-B{buffers}-S{rtt_spread:g}",
        description=f"{n}-flow dumbbell population, buffer {buffers}, "
                    f"RTT spread {rtt_spread:g}",
        flows=_manyflow_flows(n, rtt_spread, stagger),
        n_left=n,
        n_right=n,
        buffer_packets=buffers,
        duration=duration,
        warmup=warmup,
    )


def seeded(seed: int, config: ScenarioConfig) -> ScenarioConfig:
    """``config`` under another start-time seed: the seed axis.

    ``sweep(partial(seeded, config=config), seeds, extract)`` replicates
    one scenario; :func:`repro.analysis.stats.summarize` turns the points
    into a mean and a 95% interval per metric.
    """
    return config.with_updates(seed=seed)


def substituted(
    value: object,
    make_config: Callable[..., ScenarioConfig],
    *,
    algorithm: str | None = None,
    params: FlowParams = (),
    queue: str | None = None,
    queue_params: FlowParams = (),
) -> ScenarioConfig:
    """Any family's config passed through :func:`substitute`.

    Module-level (and so picklable/fingerprintable) wrapper: partial-
    apply ``make_config`` and the substitution and hand the result to a
    sweep as its config factory.  Parameters should be the sorted
    tuple-of-pairs form so equal parameter sets fingerprint equally; the
    renamed scenario partitions the result cache away from the
    original's entries.
    """
    return substitute(make_config(value), algorithm=algorithm, params=params,
                      queue=queue, queue_params=queue_params)


#: The seconds-valued fields :func:`time_scaled` divides by ``k``: the
#: scenario's, each flow's, the TCP timers, and the time-valued
#: algorithm and queue-discipline parameters.
_SCENARIO_TIMES = ("bottleneck_propagation", "access_propagation",
                   "host_processing_delay", "start_jitter", "duration",
                   "warmup")
_FLOW_TIMES = ("start_time", "access_propagation")
_TCP_TIMES = ("delayed_ack_timeout", "timer_tick", "min_rto", "max_rto",
              "initial_rto")
_PARAM_TIMES = ("idle_pkt_time", "pace_interval")


def _divided(owner: object, names: Iterable[str], k: float) -> dict:
    return {name: getattr(owner, name) / k for name in names
            if getattr(owner, name) is not None}


def _divided_params(params: FlowParams, k: float) -> dict[str, object]:
    return {name: value / k if name in _PARAM_TIMES else value
            for name, value in dict(params).items()}


def time_scaled(config: ScenarioConfig, k: float) -> ScenarioConfig:
    """``config`` run ``k`` times faster: every bandwidth times ``k``,
    every time divided by ``k``.

    The paper's dynamics depend on the pipe size, buffers, windows and
    packet sizes, not on the unit of time, and a power-of-two ``k``
    scales binary floating point exactly: the run must process the same
    events at every original time divided by ``k``.  A recorded time
    that is not points to an absolute-time constant this transform does
    not reach.
    """
    return replace(
        config,
        bottleneck_bandwidth=config.bottleneck_bandwidth * k,
        access_bandwidth=config.access_bandwidth * k,
        **_divided(config, _SCENARIO_TIMES, k),
        tcp=replace(config.tcp, **_divided(config.tcp, _TCP_TIMES, k)),
        flows=tuple(replace(flow, **_divided(flow, _FLOW_TIMES, k),
                            params=_divided_params(flow.params, k))
                    for flow in config.flows),
        queue=replace(config.queue,
                      params=_divided_params(config.queue.params, k)),
    )


def size_scaled(config: ScenarioConfig, k: int) -> ScenarioConfig:
    """``config`` with packets ``k`` times larger on links ``k`` times
    faster: both packet sizes and both bandwidths times ``k``.

    A transmission lasts ``size * 8 / bandwidth``, the same float for a
    power-of-two ``k``, and the model counts buffers and windows in
    packets: the run must process the same events at the same times,
    and only what is recorded in bytes scales by ``k``.
    """
    return replace(
        config,
        bottleneck_bandwidth=config.bottleneck_bandwidth * k,
        access_bandwidth=config.access_bandwidth * k,
        tcp=replace(config.tcp,
                    data_packet_bytes=config.tcp.data_packet_bytes * k,
                    ack_packet_bytes=config.tcp.ack_packet_bytes * k),
    )


#: The host swap :func:`mirrored` applies to each flow's ``src`` and ``dst``.
_MIRROR = {"host1": "host2", "host2": "host1"}


def mirrored(config: ScenarioConfig) -> ScenarioConfig:
    """``config`` with every flow's ends swapped between ``host1`` and
    ``host2``, so ``sw1->sw2`` and ``sw2->sw1`` trade roles.

    The dumbbell builds its two directions alike: the run must be the
    base run with the two bottleneck ports' names swapped, in every
    port's series and drop record, and with every connection's series
    unchanged.
    """
    if (config.topology, config.n_left, config.n_right) != (TopologyKind.DUMBBELL, 1, 1):
        raise ConfigurationError("mirrored needs a dumbbell with one host per side")
    return replace(config, flows=tuple(
        replace(flow, src=_MIRROR[flow.src], dst=_MIRROR[flow.dst])
        for flow in config.flows))


# ----------------------------------------------------------------------
# Extractors (``extract`` candidates)
# ----------------------------------------------------------------------
def utilization_extract(result: ScenarioResult) -> dict[str, float]:
    """Per-direction bottleneck utilization — the workhorse measurement."""
    return {f"util:{name}": util
            for name, util in result.utilizations().items()}


def timeouts_extract(result: ScenarioResult) -> dict[str, float]:
    """Total retransmission timeouts across all senders."""
    return {"timeouts": float(sum(c.sender.timeouts
                                  for c in result.connections))}


def sync_extract(result: ScenarioResult) -> dict[str, float]:
    """Ensemble synchronization verdict plus its supporting statistics.

    The phase-diagram measurement: the categorical mode ships as its
    stable numeric code (see
    :attr:`repro.analysis.synchronization.SyncMode.code`) next to the
    raw drop-coincidence and mean-pairwise-correlation numbers.
    """
    verdict = result.ensemble_sync()
    return {
        "mode_code": float(verdict.mode.code),
        "drop_coincidence": verdict.coincidence,
        "mean_correlation": verdict.correlation,
        "epochs": float(verdict.n_epochs),
        "utilization": result.utilization(),
    }
