"""Topology construction.

:class:`Network` is a container that wires hosts and switches together
with duplex links and computes static routes.  Two builders cover the
paper's configurations:

- :func:`build_dumbbell` — Figure 1: ``Host-1 — Switch-1 ==bottleneck== Switch-2 — Host-2``.
- :func:`build_chain` — the Section 5 four-switch topology from [19]:
  a chain of N switches, each with one attached host, carrying a mix of
  1..(N-1)-hop connections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError
from repro.net.host import Host
from repro.net.link import Link
from repro.net.node import Node
from repro.net.port import OutputPort
from repro.net.queues import DropTailQueue
from repro.net.routing import compute_next_hops
from repro.net.switch import Switch
from repro.units import (
    ACCESS_BANDWIDTH,
    ACCESS_PROPAGATION,
    BOTTLENECK_BANDWIDTH,
    HOST_PROCESSING_DELAY,
)

__all__ = ["Network", "DuplexLink", "QueueFactory", "build_dumbbell", "build_chain"]

#: Builds a queue discipline for one direction of a link: ``(name, capacity)``.
QueueFactory = Callable[[str, int | None], DropTailQueue]


@dataclass
class DuplexLink:
    """The pair of ports created by :meth:`Network.connect`.

    ``forward`` carries packets from the first node to the second,
    ``reverse`` the other way.
    """

    forward: OutputPort
    reverse: OutputPort


class Network:
    """A set of nodes plus the duplex links between them."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.nodes: dict[str, Node] = {}
        self.links: dict[tuple[str, str], DuplexLink] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_host(self, name: str, processing_delay: float = HOST_PROCESSING_DELAY) -> Host:
        """Create and register a host."""
        host = Host(self.sim, name, processing_delay=processing_delay)
        self._register(host)
        return host

    def add_switch(self, name: str) -> Switch:
        """Create and register a switch."""
        switch = Switch(self.sim, name)
        self._register(switch)
        return switch

    def _register(self, node: Node) -> None:
        if node.name in self.nodes:
            raise ConfigurationError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node

    def connect(
        self,
        a: Node,
        b: Node,
        bandwidth: float,
        propagation: float,
        buffer_ab: int | None,
        buffer_ba: int | None,
        queue_factory: QueueFactory | None = None,
    ) -> DuplexLink:
        """Join ``a`` and ``b`` with a duplex link.

        ``buffer_ab`` bounds the queue at ``a``'s output toward ``b``
        (packets), ``buffer_ba`` the reverse; ``None`` means infinite.
        ``queue_factory(name, capacity)`` optionally supplies a custom
        queue discipline (e.g. :class:`~repro.net.random_drop.RandomDropQueue`)
        for both directions.
        """
        key = (a.name, b.name)
        if key in self.links or (b.name, a.name) in self.links:
            raise ConfigurationError(f"nodes {a.name!r} and {b.name!r} already connected")
        fwd_link = Link(self.sim, f"{a.name}->{b.name}", propagation, destination=b)
        rev_link = Link(self.sim, f"{b.name}->{a.name}", propagation, destination=a)
        fwd_queue = queue_factory(f"{a.name}->{b.name}:queue", buffer_ab) if queue_factory else None
        rev_queue = queue_factory(f"{b.name}->{a.name}:queue", buffer_ba) if queue_factory else None
        fwd_port = OutputPort(self.sim, f"{a.name}->{b.name}", bandwidth, fwd_link,
                              buffer_ab, queue=fwd_queue)
        rev_port = OutputPort(self.sim, f"{b.name}->{a.name}", bandwidth, rev_link,
                              buffer_ba, queue=rev_queue)
        a.attach_port(b.name, fwd_port)
        b.attach_port(a.name, rev_port)
        duplex = DuplexLink(forward=fwd_port, reverse=rev_port)
        self.links[key] = duplex
        return duplex

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def compute_routes(self) -> None:
        """Install BFS next-hop routes toward every host on every node."""
        adjacency: dict[str, list[str]] = {name: [] for name in self.nodes}
        for (a, b) in self.links:
            adjacency[a].append(b)
            adjacency[b].append(a)
        hosts = [name for name, node in self.nodes.items() if isinstance(node, Host)]
        tables = compute_next_hops(adjacency, hosts)
        for name, node in self.nodes.items():
            if len(node.ports) == 1 and not node.routes:
                # Every entry names the node's only port: nothing for
                # add_route to check, and the view is O(1) where a table
                # of its own would be O(hosts).
                node.routes = tables[name]
            else:
                for dst, via in tables[name].items():
                    node.add_route(dst, via)

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def host(self, name: str) -> Host:
        """The host named ``name`` (raises if absent or not a host)."""
        node = self.nodes.get(name)
        if not isinstance(node, Host):
            raise ConfigurationError(f"no host named {name!r}")
        return node

    def switch(self, name: str) -> Switch:
        """The switch named ``name`` (raises if absent or not a switch)."""
        node = self.nodes.get(name)
        if not isinstance(node, Switch):
            raise ConfigurationError(f"no switch named {name!r}")
        return node

    def port(self, a: str, b: str) -> OutputPort:
        """The output port at node ``a`` toward neighbor ``b``."""
        node = self.nodes.get(a)
        if node is None or b not in node.ports:
            raise ConfigurationError(f"no port {a!r} -> {b!r}")
        return node.ports[b]


def build_dumbbell(
    sim: Simulator,
    bottleneck_bandwidth: float = BOTTLENECK_BANDWIDTH,
    bottleneck_propagation: float = 0.01,
    buffer_packets: int | None = 20,
    access_bandwidth: float = ACCESS_BANDWIDTH,
    access_propagation: float = ACCESS_PROPAGATION,
    host_processing_delay: float = HOST_PROCESSING_DELAY,
    access_buffer_packets: int | None = None,
    bottleneck_queue_factory: QueueFactory | None = None,
    n_left: int = 1,
    n_right: int = 1,
    access_propagation_overrides: Mapping[str, float] | None = None,
) -> Network:
    """The paper's Figure 1 topology, generalized to N hosts per side.

    ``host1..host{n_left} — sw1 ==bottleneck== sw2 —
    host{n_left+1}..host{n_left+n_right}``.  The defaults
    (``n_left=n_right=1``) reproduce Figure 1 exactly: node registration
    and link-creation order — which fixes the BFS routing tie-breaks —
    are unchanged from the two-host builder.

    The bottleneck buffers (both directions) hold ``buffer_packets``;
    access-link buffers are infinite by default (they never congest at
    10 Mbps).  ``access_propagation_overrides`` maps host names to
    per-host access propagation delays, giving flows heterogeneous RTTs;
    hosts not named keep ``access_propagation``.
    ``bottleneck_queue_factory`` optionally installs a non-drop-tail
    discipline on the two bottleneck queues.
    """
    if n_left < 1 or n_right < 1:
        raise ConfigurationError(
            f"dumbbell needs >= 1 host per side, got n_left={n_left}, "
            f"n_right={n_right}")
    overrides = dict(access_propagation_overrides or {})
    net = Network(sim)
    left = [net.add_host(f"host{i + 1}", processing_delay=host_processing_delay)
            for i in range(n_left)]
    right = [net.add_host(f"host{n_left + i + 1}",
                          processing_delay=host_processing_delay)
             for i in range(n_right)]
    unknown = sorted(set(overrides) - {h.name for h in left + right})
    if unknown:
        raise ConfigurationError(
            f"access_propagation_overrides name unknown hosts: {unknown}")
    sw1 = net.add_switch("sw1")
    sw2 = net.add_switch("sw2")
    for host in left:
        net.connect(host, sw1, access_bandwidth,
                    overrides.get(host.name, access_propagation),
                    access_buffer_packets, access_buffer_packets)
    net.connect(sw1, sw2, bottleneck_bandwidth, bottleneck_propagation,
                buffer_packets, buffer_packets,
                queue_factory=bottleneck_queue_factory)
    for host in right:
        net.connect(sw2, host, access_bandwidth,
                    overrides.get(host.name, access_propagation),
                    access_buffer_packets, access_buffer_packets)
    net.compute_routes()
    return net


def build_chain(
    sim: Simulator,
    n_switches: int = 4,
    bottleneck_bandwidth: float = BOTTLENECK_BANDWIDTH,
    bottleneck_propagation: float = 0.01,
    buffer_packets: int | None = 20,
    access_bandwidth: float = ACCESS_BANDWIDTH,
    access_propagation: float = ACCESS_PROPAGATION,
    host_processing_delay: float = HOST_PROCESSING_DELAY,
    access_buffer_packets: int | None = None,
    bottleneck_queue_factory: QueueFactory | None = None,
    hosts_per_switch: int = 1,
) -> Network:
    """A chain of ``n_switches`` switches with hosts attached to each.

    Nodes are named ``sw1..swN`` and ``host1..host{N*hosts_per_switch}``
    (switch ``i`` carries hosts ``host{(i-1)*m+1}..host{i*m}`` for
    ``m = hosts_per_switch``); all inter-switch links share the
    bottleneck parameters, so multi-hop connections cross several
    congestible queues — the Section 5 topology from [19].

    Access links buffer ``access_buffer_packets`` per direction
    (``None`` — the default, and the historical hard-coded behavior —
    means infinite).
    """
    if n_switches < 2:
        raise ConfigurationError(f"chain needs >= 2 switches, got {n_switches}")
    if hosts_per_switch < 1:
        raise ConfigurationError(
            f"chain needs >= 1 host per switch, got {hosts_per_switch}")
    net = Network(sim)
    switches = [net.add_switch(f"sw{i + 1}") for i in range(n_switches)]
    hosts = [
        net.add_host(f"host{i + 1}", processing_delay=host_processing_delay)
        for i in range(n_switches * hosts_per_switch)
    ]
    for index, host in enumerate(hosts):
        switch = switches[index // hosts_per_switch]
        net.connect(host, switch, access_bandwidth, access_propagation,
                    access_buffer_packets, access_buffer_packets)
    for left, right in zip(switches, switches[1:]):
        net.connect(left, right, bottleneck_bandwidth, bottleneck_propagation,
                    buffer_packets, buffer_packets,
                    queue_factory=bottleneck_queue_factory)
    net.compute_routes()
    return net
