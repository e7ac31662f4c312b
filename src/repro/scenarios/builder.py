"""Turn a :class:`~repro.scenarios.config.ScenarioConfig` into live objects.

The builder creates the simulator, topology, connections and monitors.
All bottleneck (switch-to-switch) ports are watched in both directions;
every connection gets cwnd and ACK-arrival logs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.rng import SimRandom
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError
from repro.metrics.trace import TraceSet
from repro.net.disciplines import create_queue
from repro.net.packet import reset_packet_uids
from repro.net.queues import DropTailQueue
from repro.net.topology import Network, QueueFactory, build_chain, build_dumbbell
from repro.scenarios.config import ScenarioConfig, TopologyKind
from repro.tcp.connection import Connection, make_connection

__all__ = ["BuiltScenario", "build"]


@dataclass
class BuiltScenario:
    """Everything instantiated for one run, pre-wired."""

    config: ScenarioConfig
    sim: Simulator
    net: Network
    connections: list[Connection]
    traces: TraceSet
    bottleneck_ports: list[str] = field(default_factory=list)
    """Names of the watched switch-to-switch ports, e.g. ``"sw1->sw2"``."""


def _queue_factory(config: ScenarioConfig, sim: Simulator) -> QueueFactory:
    """Every bottleneck queue, drop-tail included, from the registry."""
    # One seeded stream shared by all bottleneck queues, forked off the
    # scenario seed; drop-tail never draws from it.
    rng = SimRandom(config.seed).fork(0xD0D0)
    spec = config.queue

    def factory(name: str, capacity: int | None) -> DropTailQueue:
        return create_queue(spec.name, name, capacity, spec.params,
                            rng=rng, strict=sim.strict)

    return factory


def _access_overrides(config: ScenarioConfig) -> dict[str, float]:
    """Per-host access propagation from the flows' RTT overrides."""
    overrides: dict[str, float] = {}
    for flow in config.flows:
        if flow.access_propagation is None:
            continue
        existing = overrides.get(flow.src)
        if existing is not None and existing != flow.access_propagation:
            raise ConfigurationError(
                f"flows from {flow.src!r} disagree on access_propagation: "
                f"{existing} vs {flow.access_propagation}")
        overrides[flow.src] = flow.access_propagation
    return overrides


def _build_network(config: ScenarioConfig, sim: Simulator) -> tuple[Network, list[str]]:
    if config.topology is TopologyKind.DUMBBELL:
        net = build_dumbbell(
            sim,
            bottleneck_bandwidth=config.bottleneck_bandwidth,
            bottleneck_propagation=config.bottleneck_propagation,
            buffer_packets=config.buffer_packets,
            access_bandwidth=config.access_bandwidth,
            access_propagation=config.access_propagation,
            host_processing_delay=config.host_processing_delay,
            access_buffer_packets=config.access_buffer_packets,
            bottleneck_queue_factory=_queue_factory(config, sim),
            n_left=config.n_left,
            n_right=config.n_right,
            access_propagation_overrides=_access_overrides(config),
        )
        return net, ["sw1->sw2", "sw2->sw1"]
    if config.topology is TopologyKind.CHAIN:
        if _access_overrides(config):
            raise ConfigurationError(
                "per-flow access_propagation overrides are only supported "
                "on dumbbell topologies")
        net = build_chain(
            sim,
            n_switches=config.n_switches,
            bottleneck_bandwidth=config.bottleneck_bandwidth,
            bottleneck_propagation=config.bottleneck_propagation,
            buffer_packets=config.buffer_packets,
            access_bandwidth=config.access_bandwidth,
            access_propagation=config.access_propagation,
            host_processing_delay=config.host_processing_delay,
            access_buffer_packets=config.access_buffer_packets,
            bottleneck_queue_factory=_queue_factory(config, sim),
        )
        ports = []
        for i in range(1, config.n_switches):
            ports.append(f"sw{i}->sw{i + 1}")
            ports.append(f"sw{i + 1}->sw{i}")
        return net, ports
    raise ConfigurationError(f"unknown topology {config.topology}")


def build(config: ScenarioConfig) -> BuiltScenario:
    """Instantiate simulator, network, flows and instrumentation."""
    reset_packet_uids()
    sim = Simulator()
    net, bottleneck_ports = _build_network(config, sim)
    rng = SimRandom(config.seed)

    traces = TraceSet()
    for name in bottleneck_ports:
        a, b = name.split("->")
        traces.watch_port(net.port(a, b), name=name)

    connections: list[Connection] = []
    for index, flow in enumerate(config.flows, start=1):
        start = (
            flow.start_time
            if flow.start_time is not None
            else rng.fork(index).start_jitter(config.start_jitter)
        )
        conn = make_connection(
            sim, net, conn_id=index, src_host=flow.src, dst_host=flow.dst,
            algorithm=flow.algorithm, params=flow.effective_params(),
            options=config.tcp, start_time=start,
        )
        traces.watch_connection(conn)
        connections.append(conn)

    return BuiltScenario(
        config=config,
        sim=sim,
        net=net,
        connections=connections,
        traces=traces,
        bottleneck_ports=bottleneck_ports,
    )
