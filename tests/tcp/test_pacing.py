"""Unit tests for the paced strategy on the unified sender, and the
digest that pins its dynamics to the hand-wired sender it replaced."""

import hashlib
import struct

import numpy as np
import pytest

from repro.errors import ConfigurationError, ProtocolError
from repro.parallel.cache import cache_key
from repro.scenarios import (
    FlowSpec,
    config_from_dict,
    config_to_dict,
    paper,
    run,
)
from repro.tcp import Sender, TcpOptions, create_control
from tests.tcp.conftest import make_ack, make_data


def make_sender(sim, host, window=5, interval=0.08, **option_kwargs):
    options = TcpOptions(**option_kwargs)
    control = create_control(
        "paced", {"window": window, "pace_interval": interval})
    return Sender(sim, host, conn_id=1, destination="host2",
                  options=options, control=control)


class TestConstruction:
    def test_invalid_window(self, sim, host):
        with pytest.raises(ProtocolError):
            make_sender(sim, host, window=0)

    def test_invalid_interval(self, sim, host):
        with pytest.raises(ProtocolError):
            make_sender(sim, host, interval=0.0)

    def test_double_start_rejected(self, sim, host):
        sender = make_sender(sim, host)
        sender.start()
        with pytest.raises(ProtocolError):
            sender.start()


class TestPacedTransmission:
    def test_initial_window_is_spread_not_burst(self, sim, host):
        sender = make_sender(sim, host, window=4, interval=0.1)
        sender.start()
        # Only the first packet goes out immediately.
        assert len(host.data_packets) == 1
        sim.run(until=0.35)
        times = [t for t, p in host.outbox if p.is_data]
        assert times == pytest.approx([0.0, 0.1, 0.2, 0.3])

    def test_spacing_never_below_interval(self, sim, host):
        sender = make_sender(sim, host, window=8, interval=0.05)
        sender.start()
        # Bunched ACKs arrive while the pacer is still draining.
        sim.schedule(0.12, lambda: sender.deliver(make_ack(1, 1)))
        sim.schedule(0.12, lambda: sender.deliver(make_ack(1, 2)))
        sim.schedule(0.12, lambda: sender.deliver(make_ack(1, 3)))
        sim.run(until=2.0)
        times = [t for t, p in host.outbox if p.is_data]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(gap >= 0.05 - 1e-9 for gap in gaps)

    def test_window_limit_respected(self, sim, host):
        sender = make_sender(sim, host, window=3, interval=0.01)
        sender.start()
        sim.run(until=1.0)
        assert sender.packets_out == 3
        assert sender.packets_sent == 3

    def test_ack_releases_more_paced_sends(self, sim, host):
        sender = make_sender(sim, host, window=2, interval=0.1)
        sender.start()
        sim.run(until=0.5)
        assert sender.packets_sent == 2
        sender.deliver(make_ack(1, 2))
        sim.run(until=1.0)
        assert sender.packets_sent == 4
        assert sender.packets_out == 2

    def test_idle_period_allows_immediate_send(self, sim, host):
        sender = make_sender(sim, host, window=1, interval=0.1)
        sender.start()
        sim.run(until=5.0)
        host.clear()
        # Long after the last send, an ACK should release instantly.
        sim.schedule_at = sim.schedule_at  # no-op clarity
        sender.deliver(make_ack(1, 1))
        assert len(host.data_packets) == 1


class TestValidation:
    def test_rejects_data(self, sim, host):
        sender = make_sender(sim, host)
        with pytest.raises(ProtocolError):
            sender.deliver(make_data(1, 0))

    def test_rejects_future_ack(self, sim, host):
        sender = make_sender(sim, host)
        sender.start()
        with pytest.raises(ProtocolError):
            sender.deliver(make_ack(1, 50))

    def test_duplicate_ack_no_send(self, sim, host):
        sender = make_sender(sim, host, window=2, interval=0.01)
        sender.start()
        sim.run(until=0.1)
        sender.deliver(make_ack(1, 1))
        sim.run(until=0.2)
        sent_before = sender.packets_sent
        sender.deliver(make_ack(1, 1))
        sim.run(until=0.3)
        assert sender.packets_sent == sent_before


class TestObservers:
    def test_send_and_ack_observers(self, sim, host):
        sender = make_sender(sim, host, window=2, interval=0.05)
        sent, acked = [], []
        sender.on_send(lambda record: sent.append(record[1].seq))
        sender.on_ack(lambda record: acked.append(record[1]))
        sender.start()
        sim.run(until=0.2)
        sender.deliver(make_ack(1, 1))
        assert sent[:2] == [0, 1]
        assert acked == [1]


#: SHA-256 over the 250 s paced run as the separate ``PacedWindowSender``
#: transport produced it (captured from
#: ``experiments.extensions.paced_two_way(250.0)`` on the last commit
#: that had one): both connections' ``(time, ack)`` arrivals, both
#: bottleneck queue-length series, every ``sw1->sw2`` departure record.
PACED_DIGEST = "fe603677e4d7aefdbd564b6ef1b411ce6c868653cd7b99cdd60e1a0755055cfa"


def paced_digest(traces):
    digest = hashlib.sha256()
    for conn_id in (1, 2):
        for arrival in traces.ack_log(conn_id).arrivals:
            digest.update(struct.pack("<dq", *arrival))
    for port in ("sw1->sw2", "sw2->sw1"):
        lengths = traces.queue(port).lengths
        digest.update(np.asarray(lengths.times, dtype="<f8").tobytes())
        digest.update(np.asarray(lengths.values, dtype="<f8").tobytes())
    for departure in traces.queue("sw1->sw2").departures:
        digest.update(struct.pack("<dq?qqq", *departure))
    return digest.hexdigest()


class TestPacedScenario:
    """``algorithm="paced"`` as plain config data through ``scenarios.run``."""

    def test_run_reproduces_the_hand_wired_sender(self):
        result = run(paper.paced_two_way(250.0, 100.0))
        assert len(result.traces.ack_log(1)) == 2883
        assert len(result.traces.queue("sw1->sw2").departures) == 5296
        assert paced_digest(result.traces) == PACED_DIGEST

    def test_observed_run_is_bit_identical_to_bare(self):
        result = run(paper.paced_two_way(250.0, 100.0),
                     metrics=True, trace=True)
        assert paced_digest(result.traces) == PACED_DIGEST
        assert result.tracer.events_observed == result.events_processed
        assert result.metrics["metrics"]

    def test_config_round_trips_and_hashes_stably(self):
        config = paper.paced_two_way(250.0, 100.0)
        assert config_from_dict(config_to_dict(config)) == config
        assert cache_key(config) == cache_key(paper.paced_two_way(250.0, 100.0))
        assert cache_key(config) != cache_key(
            paper.figure8(duration=250.0, warmup=100.0))

    def test_missing_params_fail_at_config_time(self):
        with pytest.raises(ConfigurationError, match="'paced'"):
            FlowSpec(src="host1", dst="host2", algorithm="paced")
        with pytest.raises(ConfigurationError, match="'paced'"):
            FlowSpec(src="host1", dst="host2", algorithm="paced", window=30)
