"""Property-based tests for the Tahoe sender state machine.

We feed the sender arbitrary (but protocol-legal) sequences of ACK
values and check that its internal invariants can never be violated,
regardless of how adversarial the ACK stream is.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Simulator
from repro.tcp import Sender, TahoeControl, TcpOptions
from tests.tcp.conftest import FakeHost, make_ack


def _drive(ack_choices):
    """Run a sender against a derived, always-legal ACK stream."""
    sim = Simulator()
    host = FakeHost(sim)
    sender = Sender(sim, host, conn_id=1, destination="h2",
                    options=TcpOptions(maxwnd=64), control=TahoeControl())
    sender.start()
    states = []
    for choice in ack_choices:
        high = sender._high_seq
        # Map the raw draw onto [snd_una, high]: legal cumulative ACKs.
        span = high - sender.snd_una
        ack = sender.snd_una + (choice % (span + 1))
        sender.deliver(make_ack(1, ack))
        states.append((sender.snd_una, sender.snd_nxt, sender._high_seq,
                       sender.cwnd, sender.ssthresh))
    return sender, states


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=300))
@settings(max_examples=100)
def test_sequence_invariants(ack_choices):
    sender, states = _drive(ack_choices)
    for una, nxt, high, cwnd, ssthresh in states:
        assert 0 <= una <= nxt <= high
        assert cwnd >= 1.0
        assert ssthresh >= 2.0


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=300))
@settings(max_examples=100)
def test_snd_una_is_monotone(ack_choices):
    _, states = _drive(ack_choices)
    unas = [s[0] for s in states]
    assert unas == sorted(unas)


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200))
@settings(max_examples=60)
def test_outstanding_bounded_by_window_after_each_ack(ack_choices):
    sender, _ = _drive(ack_choices)
    # After processing, outstanding never exceeds the usable window
    # unless a loss response shrank the window below what was already
    # in flight (Tahoe does not pull packets back from the network).
    assert sender.packets_out <= max(sender.wnd, sender.snd_nxt - sender.snd_una)


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200))
@settings(max_examples=60)
def test_cwnd_capped_by_maxwnd(ack_choices):
    _, states = _drive(ack_choices)
    for _, _, _, cwnd, _ in states:
        assert cwnd <= 64.0


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200))
@settings(max_examples=60)
def test_loss_events_only_from_dupacks_here(ack_choices):
    """Without a running clock, the retransmit timer can never fire, so
    every loss event must be duplicate-ACK triggered."""
    sender, _ = _drive(ack_choices)
    assert sender.timeouts == 0
    assert sender.loss_events == sender.fast_retransmits
