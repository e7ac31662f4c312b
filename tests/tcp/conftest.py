"""Shared fixtures for transport-layer tests."""

import pytest

from repro.engine import Simulator
from repro.net.packet import Packet, PacketKind


class FakeHost:
    """Captures packets a sender/receiver injects, without a network."""

    def __init__(self, sim, name="fake"):
        self.sim = sim
        self.name = name
        self.outbox = []

    def send(self, packet, destination):
        packet.src = self.name
        packet.dst = destination
        self.outbox.append((self.sim.now, packet))
        return True

    @property
    def data_packets(self):
        return [p for _, p in self.outbox if p.is_data]

    @property
    def ack_packets(self):
        return [p for _, p in self.outbox if p.is_ack]

    def clear(self):
        self.outbox.clear()


def make_ack(conn_id, ack):
    """A bare ACK packet."""
    return Packet(conn_id=conn_id, kind=PacketKind.ACK, ack=ack, size=50)


def make_data(conn_id, seq):
    """A bare DATA packet."""
    return Packet(conn_id=conn_id, kind=PacketKind.DATA, seq=seq, size=500)


@pytest.fixture
def sim():
    # Strict: every timer, pacer wake and start a unit test drives passes
    # the sanitizer's ordering-field and finite-time checks.
    return Simulator(strict=True)


@pytest.fixture
def host(sim):
    return FakeHost(sim)
