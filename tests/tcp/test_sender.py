"""Unit tests for repro.tcp.sender (the Tahoe state machine).

These drive a Tahoe-controlled :class:`Sender` directly with hand-crafted ACKs via a
FakeHost, with no network in between, so every transition of the
congestion-control algorithm of Section 2.1 is pinned down exactly.
"""

import pytest

from repro.errors import ProtocolError
from repro.tcp import Sender, TahoeControl, TcpOptions
from tests.tcp.conftest import make_ack, make_data


def make_sender(sim, host, **option_kwargs):
    options = TcpOptions(**option_kwargs)
    sender = Sender(sim, host, conn_id=1, destination="host2", options=options,
                    control=TahoeControl())
    return sender


class TestStart:
    def test_initial_window_is_one(self, sim, host):
        sender = make_sender(sim, host)
        sender.start()
        assert len(host.data_packets) == 1
        assert host.data_packets[0].seq == 0

    def test_double_start_rejected(self, sim, host):
        sender = make_sender(sim, host)
        sender.start()
        with pytest.raises(ProtocolError):
            sender.start()

    def test_custom_initial_cwnd(self, sim, host):
        sender = make_sender(sim, host, initial_cwnd=4.0)
        sender.start()
        assert len(host.data_packets) == 4


class TestSlowStart:
    def test_window_doubles_per_round(self, sim, host):
        sender = make_sender(sim, host)
        sender.start()
        # Round 1: 1 packet out, ack it -> cwnd=2, sends 2.
        sender.deliver(make_ack(1, 1))
        assert sender.cwnd == 2.0
        assert sender.snd_nxt == 3
        # Round 2: ack both -> cwnd=4, 4 outstanding.
        sender.deliver(make_ack(1, 2))
        sender.deliver(make_ack(1, 3))
        assert sender.cwnd == 4.0
        assert sender.packets_out == 4

    def test_each_ack_releases_two_packets(self, sim, host):
        sender = make_sender(sim, host)
        sender.start()
        host.clear()
        sender.deliver(make_ack(1, 1))
        assert len(host.data_packets) == 2

    def test_exits_slow_start_at_ssthresh(self, sim, host):
        sender = make_sender(sim, host, initial_ssthresh=4.0)
        sender.start()
        acked = 0
        while sender.cwnd < 4.0:
            acked += 1
            sender.deliver(make_ack(1, acked))
        assert sender.in_slow_start is False


class TestCongestionAvoidance:
    def test_modified_increment_is_one_over_floor(self, sim, host):
        sender = make_sender(sim, host, initial_ssthresh=2.0, initial_cwnd=2.0)
        sender.start()
        sender.deliver(make_ack(1, 1))
        # cwnd >= ssthresh: increment by 1/floor(2.0) = 0.5.
        assert sender.cwnd == pytest.approx(2.5)

    def test_floor_cwnd_grows_by_one_per_epoch(self, sim, host):
        """The paper's anomaly fix: floor(cwnd) += 1 every epoch."""
        sender = make_sender(sim, host, initial_ssthresh=2.0, initial_cwnd=5.0)
        sender.start()
        # One epoch = floor(cwnd)=5 ACKs, each +1/5.
        for i in range(5):
            sender.deliver(make_ack(1, i + 1))
        assert int(sender.cwnd) == 6
        assert sender.cwnd == pytest.approx(6.0)

    def test_original_increment_uses_fractional_cwnd(self, sim, host):
        sender = make_sender(sim, host, initial_ssthresh=2.0, initial_cwnd=2.5,
                             modified_avoidance=False)
        sender.start()
        sender.deliver(make_ack(1, 1))
        assert sender.cwnd == pytest.approx(2.5 + 1 / 2.5)

    def test_wnd_is_floor_of_cwnd(self, sim, host):
        sender = make_sender(sim, host, initial_ssthresh=2.0, initial_cwnd=3.9)
        assert sender.wnd == 3

    def test_wnd_capped_by_maxwnd(self, sim, host):
        sender = make_sender(sim, host, maxwnd=4, initial_cwnd=9.0)
        assert sender.wnd == 4


class TestDuplicateAcks:
    def _sender_with_window(self, sim, host, outstanding=8):
        sender = make_sender(sim, host, initial_cwnd=float(outstanding))
        sender.start()
        assert sender.packets_out == outstanding
        return sender

    def test_below_threshold_does_nothing(self, sim, host):
        sender = self._sender_with_window(sim, host)
        cwnd_before = sender.cwnd
        sender.deliver(make_ack(1, 0))
        sender.deliver(make_ack(1, 0))
        assert sender.cwnd == cwnd_before
        assert sender.loss_events == 0

    def test_third_dupack_triggers_fast_retransmit(self, sim, host):
        sender = self._sender_with_window(sim, host)
        host.clear()
        for _ in range(3):
            sender.deliver(make_ack(1, 0))
        assert sender.fast_retransmits == 1
        assert sender.cwnd == 1.0
        # Exactly one packet resent: the missing segment.
        assert [p.seq for p in host.data_packets] == [0]
        assert host.data_packets[0].is_retransmit

    def test_fast_retransmit_preserves_snd_nxt(self, sim, host):
        sender = self._sender_with_window(sim, host, outstanding=8)
        nxt_before = sender.snd_nxt
        for _ in range(3):
            sender.deliver(make_ack(1, 0))
        assert sender.snd_nxt == nxt_before

    def test_ssthresh_halves_on_loss(self, sim, host):
        sender = self._sender_with_window(sim, host, outstanding=8)
        for _ in range(3):
            sender.deliver(make_ack(1, 0))
        assert sender.ssthresh == 4.0

    def test_ssthresh_floor_of_two(self, sim, host):
        """Footnote 9: a second detection at cwnd=1 drives ssthresh to 2."""
        sender = self._sender_with_window(sim, host, outstanding=8)
        for _ in range(3):
            sender.deliver(make_ack(1, 0))
        assert sender.cwnd == 1.0
        # Partial progress then three more dupacks at the new level.
        sender.deliver(make_ack(1, 2))
        for _ in range(3):
            sender.deliver(make_ack(1, 2))
        assert sender.ssthresh == 2.0

    def test_extra_dupacks_beyond_threshold_ignored(self, sim, host):
        sender = self._sender_with_window(sim, host)
        for _ in range(7):
            sender.deliver(make_ack(1, 0))
        assert sender.fast_retransmits == 1

    def test_new_ack_resets_dupack_count(self, sim, host):
        sender = self._sender_with_window(sim, host)
        sender.deliver(make_ack(1, 0))
        sender.deliver(make_ack(1, 0))
        sender.deliver(make_ack(1, 3))  # new data acked
        assert sender.dupacks == 0
        sender.deliver(make_ack(1, 3))
        sender.deliver(make_ack(1, 3))
        assert sender.loss_events == 0  # only 2 dups at the new level

    def test_dupack_without_outstanding_data_ignored(self, sim, host):
        # Before start, nothing is outstanding; equal-to-una ACKs must
        # not count as duplicates (BSD requires data in flight).
        sender = make_sender(sim, host)
        assert sender.packets_out == 0
        for _ in range(5):
            sender.deliver(make_ack(1, 0))
        assert sender.dupacks == 0
        assert sender.loss_events == 0


class TestAckValidation:
    def test_ack_beyond_high_water_rejected(self, sim, host):
        sender = make_sender(sim, host)
        sender.start()
        with pytest.raises(ProtocolError):
            sender.deliver(make_ack(1, 100))

    def test_data_packet_rejected(self, sim, host):
        sender = make_sender(sim, host)
        with pytest.raises(ProtocolError):
            sender.deliver(make_data(1, 0))

    def test_stale_ack_ignored(self, sim, host):
        sender = make_sender(sim, host, initial_cwnd=4.0)
        sender.start()
        sender.deliver(make_ack(1, 3))
        before = (sender.cwnd, sender.snd_una, sender.loss_events)
        sender.deliver(make_ack(1, 1))  # below snd_una
        assert (sender.cwnd, sender.snd_una, sender.loss_events) == before

    def test_cumulative_ack_past_reset_snd_nxt(self, sim, host):
        """After a loss response, an ACK may cover cached data beyond
        snd_nxt; the sender must resume from there, not resend."""
        sender = make_sender(sim, host, initial_cwnd=8.0)
        sender.start()
        for _ in range(3):
            sender.deliver(make_ack(1, 0))
        # Receiver had 1..7 cached; the retransmit fills the hole.
        sender.deliver(make_ack(1, 8))
        assert sender.snd_una == 8
        assert sender.snd_nxt >= 8


class TestTimeout:
    def test_timeout_retransmits_and_collapses(self, sim, host):
        sender = make_sender(sim, host, initial_cwnd=4.0)
        sender.start()
        host.clear()
        sim.run(until=10.0)  # let the retransmit timer expire
        assert sender.timeouts >= 1
        assert sender.cwnd == 1.0
        # Go-back-N: retransmission restarts from snd_una.
        assert host.data_packets[0].seq == 0
        assert host.data_packets[0].is_retransmit

    def test_timeout_applies_backoff(self, sim, host):
        sender = make_sender(sim, host)
        sender.start()
        sim.run(until=30.0)
        assert sender.timeouts >= 2
        assert sender.rtt.backoff >= 2

    def test_stale_timer_fire_is_harmless(self, sim, host):
        # A timer expiring with nothing outstanding must not count as a
        # timeout nor disturb the congestion state.
        sender = make_sender(sim, host)
        cwnd_before = sender.cwnd
        sender._on_timeout()
        assert sender.timeouts == 0
        assert sender.cwnd == cwnd_before


class TestObservers:
    def test_cwnd_observer_sees_growth(self, sim, host):
        sender = make_sender(sim, host)
        history = []
        sender.on_cwnd_change(lambda record: history.append(record[1]))
        sender.start()
        sender.deliver(make_ack(1, 1))
        assert history[-1] == 2.0

    def test_loss_observer_reports_trigger(self, sim, host):
        sender = make_sender(sim, host, initial_cwnd=8.0)
        events = []
        sender.on_loss_detected(lambda record: events.append(record[1]))
        sender.start()
        for _ in range(3):
            sender.deliver(make_ack(1, 0))
        assert events == ["dupack"]

    def test_send_observer_sees_every_packet(self, sim, host):
        sender = make_sender(sim, host, initial_cwnd=3.0)
        sent = []
        sender.on_send(lambda record: sent.append(record[1].seq))
        sender.start()
        assert sent == [0, 1, 2]

    def test_ack_observer(self, sim, host):
        sender = make_sender(sim, host)
        acks = []
        sender.on_ack(lambda record: acks.append(record[1]))
        sender.start()
        sender.deliver(make_ack(1, 1))
        assert acks == [1]


class TestRttIntegration:
    def test_rtt_sampled_from_timed_packet(self, sim, host):
        sender = make_sender(sim, host)
        sender.start()
        sim.schedule(2.0, lambda: sender.deliver(make_ack(1, 1)))
        sim.run(until=2.5)
        assert sender.rtt.srtt == pytest.approx(2.0)

    def test_karn_no_sample_after_loss(self, sim, host):
        sender = make_sender(sim, host, initial_cwnd=8.0)
        sender.start()
        for _ in range(3):
            sender.deliver(make_ack(1, 0))
        srtt_before = sender.rtt.srtt
        sender.deliver(make_ack(1, 8))  # covers the retransmitted packet
        assert sender.rtt.srtt == srtt_before


class TestCoarseTimerQuantization:
    def test_timeouts_fire_on_tick_boundaries(self, sim, host):
        """BSD slow-timeout: retransmissions land on 500 ms boundaries."""
        sender = make_sender(sim, host, initial_cwnd=2.0)
        timeout_times = []
        original = sender._on_timeout

        def spy():
            timeout_times.append(sim.now)
            original()

        sender._rexmt._callback = spy
        sender.start()
        sim.run(until=40.0)
        assert timeout_times
        for t in timeout_times:
            assert t % 0.5 == pytest.approx(0.0, abs=1e-9)

    def test_min_rto_is_two_ticks(self, sim, host):
        """With a tiny measured RTT, the RTO still floors at 1 s."""
        sender = make_sender(sim, host)
        for _ in range(50):
            sender.rtt.sample(0.001)
        assert sender.rtt.rto() >= 1.0
