"""Network substrate: packets, queues, links, switches, hosts, topologies."""

from repro.net.disciplines import (
    create_queue,
    discipline_names,
    register_discipline,
    validate_params,
)
from repro.net.host import Host
from repro.net.link import Link
from repro.net.node import Node
from repro.net.packet import Packet, PacketKind
from repro.net.port import OutputPort
from repro.net.queues import DropTailQueue
from repro.net.random_drop import RandomDropQueue
from repro.net.red import RedQueue
from repro.net.routing import compute_next_hops
from repro.net.switch import Switch
from repro.net.topology import DuplexLink, Network, build_chain, build_dumbbell

__all__ = [
    "Packet",
    "PacketKind",
    "DropTailQueue",
    "RandomDropQueue",
    "RedQueue",
    "Link",
    "OutputPort",
    "Node",
    "Switch",
    "Host",
    "Network",
    "DuplexLink",
    "build_dumbbell",
    "build_chain",
    "compute_next_hops",
    "register_discipline",
    "create_queue",
    "validate_params",
    "discipline_names",
]
