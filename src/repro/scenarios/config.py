"""Declarative scenario configuration.

A :class:`ScenarioConfig` captures everything needed to reproduce one of
the paper's runs: topology parameters, TCP options, the set of flows,
and the measurement window.  Configs are plain data — building and
running them is the job of :mod:`repro.scenarios.builder` and
:mod:`repro.scenarios.runner` — so they can be swept, serialized and
compared in benchmarks.

Flows name their congestion-control algorithm by registry string
(``algorithm="tahoe"``) plus a parameter mapping, so any strategy
registered through :func:`repro.tcp.register_algorithm` — built-in or
third-party — is reachable from plain config data without touching the
builder.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError
from repro.net.disciplines import validate_params as validate_queue_params
from repro.tcp.congestion import ALGORITHMS
from repro.tcp.options import TcpOptions
from repro.units import (
    ACCESS_BANDWIDTH,
    ACCESS_PROPAGATION,
    BOTTLENECK_BANDWIDTH,
    HOST_PROCESSING_DELAY,
    pipe_size,
)

__all__ = ["FlowSpec", "QueueSpec", "TopologyKind", "ScenarioConfig",
           "substitute"]

#: Algorithm parameters as passed by callers: a mapping, or the
#: normalized sorted tuple-of-pairs form the frozen dataclass stores.
FlowParams = Mapping[str, object] | tuple[tuple[str, object], ...]


def _normalize_params(params: FlowParams) -> tuple[tuple[str, object], ...]:
    """Sorted tuple-of-pairs: hashable, order-independent, frozen."""
    if not params:
        return ()
    items = dict(params).items()
    for key, _ in items:
        if not isinstance(key, str):
            raise ConfigurationError(
                f"parameter names must be strings, got {key!r}")
    return tuple(sorted(items))


class TopologyKind(enum.Enum):
    """Which topology builder a scenario uses."""

    DUMBBELL = "dumbbell"
    CHAIN = "chain"


@dataclass(frozen=True)
class QueueSpec:
    """The bottleneck queue discipline, by registry name plus parameters.

    ``name`` is a queue-discipline registry string (see
    :func:`repro.net.register_discipline`); ``params`` are keyword
    arguments for the queue class, normalized to a sorted tuple of
    pairs exactly like :class:`FlowSpec` algorithm params.  Validation
    is eager — an unknown discipline or out-of-range parameter fails at
    config construction, not mid-sweep in a worker process.
    """

    name: str = "droptail"
    params: FlowParams = ()

    def __post_init__(self) -> None:
        normalized = _normalize_params(self.params)
        object.__setattr__(self, "params", normalized)
        # Eagerly probe the discipline so a bad name or parameter set
        # fails at config time, not mid-build.
        validate_queue_params(self.name, normalized)


@dataclass(frozen=True)
class FlowSpec:
    """One unidirectional connection.

    ``algorithm`` is a congestion-control registry name (see
    :func:`repro.tcp.register_algorithm`); ``params`` are keyword
    arguments for its factory.  ``window`` is sugar for the common
    ``window=`` parameter (fixed windows, AIMD caps) kept as a first-
    class field so sweep code can read it back without digging through
    ``params``.  ``start_time=None`` requests a seeded-random start in
    ``[0, config.start_jitter]`` — the paper's fixed-window runs start
    "at random times".
    """

    src: str
    dst: str
    algorithm: str = "tahoe"
    params: FlowParams = ()
    window: int | None = None  # required for window-keyed algorithms ("fixed")
    start_time: float | None = 0.0
    access_propagation: float | None = None
    """Override the source host's access-link propagation delay for a
    longer/shorter RTT than the scenario default (heterogeneous-RTT
    populations).  Flows sharing a source host must agree on the value."""

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ConfigurationError("flow endpoints must differ")
        if self.start_time is not None and self.start_time < 0:
            raise ConfigurationError("start time cannot be negative")
        if self.access_propagation is not None and self.access_propagation <= 0:
            raise ConfigurationError(
                f"access propagation override must be positive, "
                f"got {self.access_propagation}")
        normalized = _normalize_params(self.params)
        object.__setattr__(self, "params", normalized)
        params_window = bool(normalized) and "window" in dict(normalized)
        if self.window is not None and params_window:
            raise ConfigurationError(
                "flow window given twice: as the window field and in params")
        if self.algorithm == "fixed" and (self.window is None
                                          and not params_window):
            raise ConfigurationError("fixed-window flows need window >= 1")
        if self.window is not None and self.window < 1:
            raise ConfigurationError(
                f"fixed-window flows need window >= 1, got {self.window}")
        # Eagerly probe the strategy so a bad algorithm name or
        # parameter set fails at config time, not mid-build.
        if self.window is not None:
            normalized += (("window", self.window),)
        ALGORITHMS.validate(self.algorithm, params=normalized)

    def effective_params(self) -> dict[str, object]:
        """The full factory keyword set, with the ``window`` sugar folded in."""
        merged = dict(self.params)
        if self.window is not None:
            merged["window"] = self.window
        return merged


@dataclass(frozen=True)
class ScenarioConfig:
    """A complete, runnable experiment description."""

    name: str
    flows: tuple[FlowSpec, ...]
    description: str = ""
    topology: TopologyKind = TopologyKind.DUMBBELL
    n_switches: int = 2  # chain topologies only
    n_left: int = 1  # dumbbell topologies only: hosts left of the bottleneck
    n_right: int = 1  # dumbbell topologies only: hosts right of the bottleneck
    bottleneck_bandwidth: float = BOTTLENECK_BANDWIDTH
    bottleneck_propagation: float = 0.01
    buffer_packets: int | None = 20  # None = infinite
    access_buffer_packets: int | None = None  # None = infinite
    access_bandwidth: float = ACCESS_BANDWIDTH
    access_propagation: float = ACCESS_PROPAGATION
    host_processing_delay: float = HOST_PROCESSING_DELAY
    tcp: TcpOptions = field(default_factory=TcpOptions)
    duration: float = 600.0
    warmup: float = 200.0
    seed: int = 1
    start_jitter: float = 1.0
    queue: QueueSpec = field(default_factory=QueueSpec)
    """The bottleneck queue discipline: ``droptail`` (the paper's
    gateways), ``randomdrop`` (the alternative of references
    [4,5,10,18]), ``red``, or any registered discipline — with its
    parameters."""

    def __post_init__(self) -> None:
        if not self.flows:
            raise ConfigurationError("scenario needs at least one flow")
        if self.duration <= 0:
            raise ConfigurationError("duration must be positive")
        if not (0 <= self.warmup < self.duration):
            raise ConfigurationError("need 0 <= warmup < duration")
        if self.topology is TopologyKind.CHAIN and self.n_switches < 2:
            raise ConfigurationError("chain topology needs >= 2 switches")
        if self.n_left < 1 or self.n_right < 1:
            raise ConfigurationError("dumbbell needs >= 1 host per side")
        if self.start_jitter < 0:
            raise ConfigurationError("start jitter cannot be negative")
        if not isinstance(self.queue, QueueSpec):
            raise ConfigurationError(
                f"queue must be a QueueSpec, got {self.queue!r}")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def pipe_size(self) -> float:
        """P = mu * tau / M in data packets, per the paper."""
        return pipe_size(
            self.bottleneck_bandwidth,
            self.bottleneck_propagation,
            self.tcp.data_packet_bytes,
        )

    @property
    def data_tx_time(self) -> float:
        """Transmission time of one data packet on the bottleneck."""
        return self.tcp.data_packet_bytes * 8.0 / self.bottleneck_bandwidth

    @property
    def ack_tx_time(self) -> float:
        """Transmission time of one ACK on the bottleneck."""
        return self.tcp.ack_packet_bytes * 8.0 / self.bottleneck_bandwidth

    @property
    def capacity(self) -> int:
        """One-way path capacity C = floor(B + 2P) (meaningful only when
        the buffer is finite; see Section 3.1)."""
        if self.buffer_packets is None:
            raise ConfigurationError("capacity is undefined with infinite buffers")
        return int(self.buffer_packets + 2 * self.pipe_size)

    @property
    def measurement_window(self) -> tuple[float, float]:
        """The (start, end) interval analyses should use."""
        return (self.warmup, self.duration)

    @property
    def n_connections(self) -> int:
        """Number of flows."""
        return len(self.flows)

    @property
    def algorithms(self) -> tuple[str, ...]:
        """The distinct congestion-control algorithms in use, sorted."""
        return tuple(sorted({flow.algorithm for flow in self.flows}))

    def with_updates(self, **changes) -> "ScenarioConfig":
        """A copy with the given fields replaced (sweep helper)."""
        return replace(self, **changes)


def substitute(
    config: ScenarioConfig,
    *,
    algorithm: str | None = None,
    params: FlowParams | None = None,
    queue: str | None = None,
    queue_params: FlowParams | None = None,
) -> ScenarioConfig:
    """``config`` under another window algorithm and/or queue discipline.

    The one transform behind every counterfactual run ("the same
    scenario under AIMD / through RED").  ``algorithm`` replaces every
    flow's algorithm and parameters wholesale while every other per-flow
    field survives — a fixed-window grid keeps its W1/W2 as window caps,
    an RTT-spread population its ``access_propagation``.  ``queue``
    replaces the bottleneck discipline.  The algorithm is applied first,
    and the scenario is renamed ``<name>+<algorithm>+<queue>`` (each
    part only when substituted) so caches and manifests cannot confuse
    the substituted run with the original.
    """
    if params and algorithm is None:
        raise ConfigurationError("algorithm params given without an algorithm")
    if queue_params and queue is None:
        raise ConfigurationError("queue params given without a queue")
    name, flows, spec = config.name, config.flows, config.queue
    if algorithm is not None:
        flows = tuple(
            replace(flow, algorithm=algorithm,
                    params=() if params is None else params)
            for flow in flows
        )
        name += f"+{algorithm}"
    if queue is not None:
        spec = QueueSpec(name=queue,
                         params=() if queue_params is None else queue_params)
        name += f"+{queue}"
    return replace(config, name=name, flows=flows, queue=spec)
