"""The paper's named configurations (Sections 3-5).

Every factory returns a :class:`~repro.scenarios.config.ScenarioConfig`
matching one of the paper's runs.  Durations include a generous
transient so measurements are taken in steady state, as the paper's
figures are (they plot windows hundreds of seconds into the runs).
"""

from __future__ import annotations

from dataclasses import replace

from repro.scenarios.config import FlowSpec, ScenarioConfig, TopologyKind
from repro.tcp.options import TcpOptions
from repro.units import LARGE_PIPE_PROPAGATION, SMALL_PIPE_PROPAGATION

__all__ = [
    "one_way",
    "figure2",
    "figure2_small_pipe",
    "figure3",
    "two_way",
    "figure4",
    "figure6",
    "fixed_window_two_way",
    "figure8",
    "figure9",
    "paced_two_way",
    "zero_ack_fixed_window",
    "delayed_ack_two_way",
    "reno_two_way",
    "four_switch",
    "four_switch_fifty",
]


def one_way(
    n_connections: int = 3,
    propagation: float = LARGE_PIPE_PROPAGATION,
    buffer_packets: int = 20,
    duration: float = 500.0,
    warmup: float = 150.0,
    name: str | None = None,
) -> ScenarioConfig:
    """Section 3.1: N Tahoe connections, all sources on host1."""
    flows = tuple(
        FlowSpec(src="host1", dst="host2", algorithm="tahoe")
        for _ in range(n_connections)
    )
    return ScenarioConfig(
        name=name or f"one-way-{n_connections}conn-tau{propagation:g}",
        description=(
            f"{n_connections} Tahoe connections host1->host2, "
            f"tau={propagation:g}s, B={buffer_packets}"
        ),
        flows=flows,
        bottleneck_propagation=propagation,
        buffer_packets=buffer_packets,
        duration=duration,
        warmup=warmup,
    )


def figure2(duration: float = 500.0, warmup: float = 150.0) -> ScenarioConfig:
    """Figure 2: three one-way connections, tau = 1 s, B = 20."""
    return one_way(
        n_connections=3,
        propagation=LARGE_PIPE_PROPAGATION,
        buffer_packets=20,
        duration=duration,
        warmup=warmup,
        name="figure2",
    )


def figure2_small_pipe(duration: float = 400.0, warmup: float = 100.0) -> ScenarioConfig:
    """Section 3.1 variant: same as Figure 2 with tau = 0.01 s (util ~100%)."""
    return one_way(
        n_connections=3,
        propagation=SMALL_PIPE_PROPAGATION,
        buffer_packets=20,
        duration=duration,
        warmup=warmup,
        name="figure2-small-pipe",
    )


def figure3(
    buffer_packets: int = 30,
    duration: float = 600.0,
    warmup: float = 200.0,
) -> ScenarioConfig:
    """Figure 3 / Section 3.2: five connections each way, tau = 0.01 s.

    ``buffer_packets=60`` reproduces the prose claim that utilization
    *drops* when the buffer doubles.
    """
    flows = tuple(
        [FlowSpec(src="host1", dst="host2", start_time=None) for _ in range(5)]
        + [FlowSpec(src="host2", dst="host1", start_time=None) for _ in range(5)]
    )
    return ScenarioConfig(
        name=f"figure3-B{buffer_packets}",
        description=(
            f"5+5 Tahoe connections, tau=0.01s, B={buffer_packets} "
            "(the [19] reproduction)"
        ),
        flows=flows,
        bottleneck_propagation=SMALL_PIPE_PROPAGATION,
        buffer_packets=buffer_packets,
        duration=duration,
        warmup=warmup,
        start_jitter=5.0,
    )


def two_way(
    propagation: float,
    buffer_packets: int = 20,
    duration: float = 700.0,
    warmup: float = 250.0,
    name: str | None = None,
    tcp: TcpOptions | None = None,
) -> ScenarioConfig:
    """Section 4: one Tahoe connection in each direction.

    Start times are jittered (seeded): simultaneous starts would leave
    the two connections in an artificial perfectly-symmetric lockstep
    that real systems (and the paper's runs) never occupy.
    """
    flows = (
        FlowSpec(src="host1", dst="host2", start_time=None),
        FlowSpec(src="host2", dst="host1", start_time=None),
    )
    return ScenarioConfig(
        name=name or f"two-way-tau{propagation:g}-B{buffer_packets}",
        description=(
            f"1+1 Tahoe connections, tau={propagation:g}s, B={buffer_packets}"
        ),
        flows=flows,
        bottleneck_propagation=propagation,
        buffer_packets=buffer_packets,
        duration=duration,
        warmup=warmup,
        tcp=tcp or TcpOptions(),
        start_jitter=3.0,
    )


def figure4(buffer_packets: int = 20, duration: float = 700.0,
            warmup: float = 250.0) -> ScenarioConfig:
    """Figures 4-5: two-way, tau = 0.01 s — the out-of-phase mode.

    Larger ``buffer_packets`` (60, 120) reproduce the Section 4.3.1
    claim that utilization stays ~70% regardless of buffer size.
    """
    return two_way(
        propagation=SMALL_PIPE_PROPAGATION,
        buffer_packets=buffer_packets,
        duration=duration,
        warmup=warmup,
        name=f"figure4-B{buffer_packets}",
    )


def figure6(duration: float = 900.0, warmup: float = 300.0) -> ScenarioConfig:
    """Figures 6-7: two-way, tau = 1 s — the in-phase mode."""
    return two_way(
        propagation=LARGE_PIPE_PROPAGATION,
        buffer_packets=20,
        duration=duration,
        warmup=warmup,
        name="figure6",
    )


def fixed_window_two_way(
    w1: int,
    w2: int,
    propagation: float,
    ack_bytes: int = 50,
    duration: float = 600.0,
    warmup: float = 400.0,
    seed: int = 7,
    name: str | None = None,
) -> ScenarioConfig:
    """Fixed windows in opposite directions over infinite buffers."""
    tcp = TcpOptions(ack_packet_bytes=ack_bytes)
    flows = (
        FlowSpec(src="host1", dst="host2", algorithm="fixed", window=w1,
                 start_time=None),
        FlowSpec(src="host2", dst="host1", algorithm="fixed", window=w2,
                 start_time=None),
    )
    return ScenarioConfig(
        name=name or f"fixed-{w1}-{w2}-tau{propagation:g}",
        description=(
            f"fixed windows {w1}/{w2}, tau={propagation:g}s, infinite buffers, "
            f"ACKs {ack_bytes}B"
        ),
        flows=flows,
        bottleneck_propagation=propagation,
        buffer_packets=None,
        tcp=tcp,
        duration=duration,
        warmup=warmup,
        seed=seed,
        start_jitter=2.0,
    )


def figure8(duration: float = 600.0, warmup: float = 400.0) -> ScenarioConfig:
    """Figure 8: fixed windows 30/25, tau = 0.01 s, infinite buffers."""
    return fixed_window_two_way(
        w1=30, w2=25, propagation=SMALL_PIPE_PROPAGATION,
        duration=duration, warmup=warmup, name="figure8",
    )


def figure9(duration: float = 600.0, warmup: float = 400.0) -> ScenarioConfig:
    """Figure 9: fixed windows 30/25, tau = 1 s, infinite buffers."""
    return fixed_window_two_way(
        w1=30, w2=25, propagation=LARGE_PIPE_PROPAGATION,
        duration=duration, warmup=warmup, name="figure9",
    )


def paced_two_way(duration: float = 250.0, warmup: float = 100.0) -> ScenarioConfig:
    """Section 3.1's counterfactual: Figure 8's system with both fixed
    windows (30/25) paced at the bottleneck data rate.

    Starts are explicit (0.0 and 1.3 s), not jittered: the run is
    pinned by digest in ``tests/tcp/test_pacing.py``.
    """
    base = figure8(duration=duration, warmup=warmup)
    pace = {"pace_interval": base.data_tx_time}
    flows = (
        FlowSpec(src="host1", dst="host2", algorithm="paced", window=30,
                 params=pace, start_time=0.0),
        FlowSpec(src="host2", dst="host1", algorithm="paced", window=25,
                 params=pace, start_time=1.3),
    )
    return replace(
        base,
        name="paced-two-way",
        description="paced fixed windows 30/25, tau=0.01s, infinite buffers",
        flows=flows,
    )


def zero_ack_fixed_window(
    w1: int,
    w2: int,
    propagation: float,
    duration: float = 600.0,
    warmup: float = 400.0,
    seed: int = 7,
) -> ScenarioConfig:
    """Section 4.3.3: the idealized zero-length-ACK system."""
    return fixed_window_two_way(
        w1=w1, w2=w2, propagation=propagation, ack_bytes=0,
        duration=duration, warmup=warmup, seed=seed,
        name=f"zero-ack-{w1}-{w2}-tau{propagation:g}",
    )


def delayed_ack_two_way(
    maxwnd: int = 1000,
    propagation: float = SMALL_PIPE_PROPAGATION,
    buffer_packets: int = 20,
    duration: float = 700.0,
    warmup: float = 250.0,
) -> ScenarioConfig:
    """Section 5: two-way traffic with the delayed-ACK option on.

    ``maxwnd=8`` reproduces the small-window case where clusters are cut
    into small pieces and ACK-compression is minimized.
    """
    tcp = TcpOptions(delayed_ack=True, maxwnd=maxwnd)
    return two_way(
        propagation=propagation,
        buffer_packets=buffer_packets,
        duration=duration,
        warmup=warmup,
        name=f"delayed-ack-maxwnd{maxwnd}",
        tcp=tcp,
    )


def reno_two_way(
    propagation: float = SMALL_PIPE_PROPAGATION,
    buffer_packets: int = 20,
    duration: float = 700.0,
    warmup: float = 250.0,
) -> ScenarioConfig:
    """Extension: the two-way configuration with Reno (fast recovery).

    The paper conjectures its phenomena hold for "a wider class" of
    nonpaced window algorithms; the 4.3-reno evolution ([7]) is the
    most natural test case.
    """
    flows = (
        FlowSpec(src="host1", dst="host2", algorithm="reno", start_time=None),
        FlowSpec(src="host2", dst="host1", algorithm="reno", start_time=None),
    )
    return ScenarioConfig(
        name=f"reno-two-way-tau{propagation:g}",
        description=(
            f"1+1 Reno connections, tau={propagation:g}s, B={buffer_packets}"
        ),
        flows=flows,
        bottleneck_propagation=propagation,
        buffer_packets=buffer_packets,
        duration=duration,
        warmup=warmup,
        start_jitter=3.0,
    )


def four_switch_fifty(
    buffer_packets: int = 20,
    duration: float = 400.0,
    warmup: float = 150.0,
) -> ScenarioConfig:
    """Section 5 at full scale: the [19] configuration of 50 connections.

    "a traffic pattern of 50 connections whose path lengths were roughly
    equally split between 1, 2, and 3 hops" on a four-switch chain.
    18 one-hop, 16 two-hop and 16 three-hop connections, both directions
    represented in every class.
    """
    flows: list[FlowSpec] = []
    one_hop_pairs = [("host1", "host2"), ("host2", "host3"), ("host3", "host4"),
                     ("host2", "host1"), ("host3", "host2"), ("host4", "host3")]
    two_hop_pairs = [("host1", "host3"), ("host2", "host4"),
                     ("host3", "host1"), ("host4", "host2")]
    three_hop_pairs = [("host1", "host4"), ("host4", "host1")]
    for src, dst in one_hop_pairs * 3:          # 18 one-hop connections
        flows.append(FlowSpec(src=src, dst=dst, start_time=None))
    for src, dst in two_hop_pairs * 4:          # 16 two-hop connections
        flows.append(FlowSpec(src=src, dst=dst, start_time=None))
    for src, dst in three_hop_pairs * 8:        # 16 three-hop connections
        flows.append(FlowSpec(src=src, dst=dst, start_time=None))
    return ScenarioConfig(
        name="four-switch-50conns",
        description="4-switch chain, 50 connections over 1/2/3-hop paths",
        flows=tuple(flows),
        topology=TopologyKind.CHAIN,
        n_switches=4,
        bottleneck_propagation=SMALL_PIPE_PROPAGATION,
        buffer_packets=buffer_packets,
        duration=duration,
        warmup=warmup,
        start_jitter=10.0,
    )


def four_switch(
    buffer_packets: int = 20,
    duration: float = 600.0,
    warmup: float = 200.0,
) -> ScenarioConfig:
    """Section 5: the four-switch chain from [19], mixed path lengths.

    Connections cover 1-, 2- and 3-hop paths in both directions so both
    data and ACK packets share every inter-switch queue.
    """
    flows = (
        # 3-hop, both directions
        FlowSpec(src="host1", dst="host4", start_time=None),
        FlowSpec(src="host4", dst="host1", start_time=None),
        # 2-hop, both directions
        FlowSpec(src="host1", dst="host3", start_time=None),
        FlowSpec(src="host4", dst="host2", start_time=None),
        # 1-hop, both directions
        FlowSpec(src="host2", dst="host3", start_time=None),
        FlowSpec(src="host3", dst="host2", start_time=None),
    )
    return ScenarioConfig(
        name="four-switch",
        description="4-switch chain, 6 connections with 1/2/3-hop paths",
        flows=flows,
        topology=TopologyKind.CHAIN,
        n_switches=4,
        bottleneck_propagation=SMALL_PIPE_PROPAGATION,
        buffer_packets=buffer_packets,
        duration=duration,
        warmup=warmup,
        start_jitter=5.0,
    )
