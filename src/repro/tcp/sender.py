"""The unified transport sender core.

One :class:`Sender` owns every *mechanism* a windowed transport
endpoint needs — sequence state, the retransmit queue implied by
go-back-N, the coarse retransmission timer, RTT estimation (Karn's
rule included), window filling, and observer fan-out — while all
*policy* (how the window evolves) lives in a
:class:`~repro.tcp.congestion.base.CongestionControl` strategy chosen
per flow.  ``Sender(..., control=TahoeControl())`` is the paper's
Section 2.1 sender; swapping the strategy swaps the algorithm without
touching a line of this file.

Transmission is nonpaced: every send happens immediately upon ACK
receipt — the property that produces packet clustering and, with
two-way traffic, ACK-compression.  The one exception is a strategy
that takes the fill seam (``CongestionControl.bind_fill``, bound once
in ``__init__``): the paced counterfactual spaces its own sends.  The
sender has an infinite backlog (the paper's sources "have an infinite
amount of data to send"); sequence numbers count maximum-size packets,
not bytes, matching the paper's units.

Strategies whose ``reliable`` flag is off (fixed-window flows over
lossless scenarios) run with the reliability machinery disabled: the
timer is never armed, ACKs are never timed, duplicate ACKs are ignored
— bit-identical to a sender that never had the machinery at all.
"""

from __future__ import annotations

from typing import Callable

from repro.engine.fanout import Sink, bind_fanout
from repro.engine.simulator import Simulator
from repro.engine.timer import CoarseTimer
from repro.errors import ProtocolError
from repro.net.host import Host
from repro.net.packet import Packet, PacketKind
from repro.tcp.congestion.base import CongestionControl
from repro.tcp.congestion.tahoe import TahoeControl
from repro.tcp.options import TcpOptions
from repro.tcp.rto import RttEstimator

__all__ = ["Sender"]


class Sender:
    """Sending endpoint of one transport connection (mechanism only)."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        conn_id: int,
        destination: str,
        options: TcpOptions | None = None,
        control: CongestionControl | None = None,
    ) -> None:
        self._sim = sim
        self._host = host
        self.conn_id = conn_id
        self.destination = destination
        self.options = options or TcpOptions()
        self.control = control if control is not None else TahoeControl()

        # --- congestion state (policy writes, mechanism reads) ---------
        self.cwnd: float = self.options.initial_cwnd
        self.ssthresh: float = self.options.effective_initial_ssthresh

        # --- sequence state (units: packets) --------------------------
        self.snd_una = 0  # lowest unacknowledged sequence number
        self.snd_nxt = 0  # next sequence number to transmit
        self._high_seq = 0  # highest sequence number ever sent + 1
        self.dupacks = 0

        # --- timing ----------------------------------------------------
        self.rtt = RttEstimator(
            initial_rto=self.options.initial_rto,
            min_rto=self.options.min_rto,
            max_rto=self.options.max_rto,
        )
        self._timed_seq: int | None = None
        self._timed_at = 0.0
        # Constructing a CoarseTimer schedules nothing, so non-reliable
        # strategies carry an inert timer rather than a None check.
        self._rexmt = CoarseTimer(
            sim, self._on_timeout, period=self.options.timer_tick,
            label=f"conn{conn_id}:rexmt",
        )

        # --- counters ---------------------------------------------------
        self.packets_sent = 0
        self.retransmits = 0
        self.fast_retransmits = 0
        self.timeouts = 0
        self.loss_events = 0
        self.acks_received = 0
        self._started = False

        # --- observers ---------------------------------------------------
        # The lists keep registration order; the fans are the bound
        # dispatch targets the data path actually calls (None when a
        # hook has no observers — see repro.engine.fanout).
        self._cwnd_sinks: list[Sink] = []
        self._loss_sinks: list[Sink] = []
        self._send_sinks: list[Sink] = []
        self._ack_sinks: list[Sink] = []
        self._rtt_sinks: list[Sink] = []
        self._cwnd_fan: Sink | None = None
        self._loss_fan: Sink | None = None
        self._send_fan: Sink | None = None
        self._ack_fan: Sink | None = None
        self._rtt_fan: Sink | None = None

        self.control.attach(self)
        # Bind-once strategy dispatch: `control` is fixed for the life of
        # the sender, so the per-ACK calls go through bound methods cached
        # here instead of two attribute loads per call.  The `reliable`
        # flag is likewise constant (a ClassVar of the strategy).
        control = self.control
        self._cc_grow = control.grow
        self._cc_dupack = control.dupack
        self._cc_ack_advanced = control.ack_advanced
        self._cc_on_loss = control.on_loss
        self._cc_usable_window = control.usable_window
        self._reliable = control.reliable
        #: Send what the window permits.  The fill seam, bound here and
        #: never again: the nonpaced burst below unless the strategy
        #: takes filling over (see ``CongestionControl.bind_fill``), so
        #: a nonpaced flow pays no call or branch for the choice.
        self.fill_window: Callable[[], None] = (
            control.bind_fill(sim, self) or self._fill_back_to_back)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def wnd(self) -> int:
        """The usable window as the strategy computes it, at least 1."""
        return self.control.usable_window(self)

    @property
    def packets_out(self) -> int:
        """Packets currently considered outstanding."""
        return self.snd_nxt - self.snd_una

    @property
    def started(self) -> bool:
        """True once :meth:`start` has run."""
        return self._started

    @property
    def in_slow_start(self) -> bool:
        """True when the next growth step would be exponential."""
        return self.cwnd < self.ssthresh

    # ------------------------------------------------------------------
    # Observers
    # ------------------------------------------------------------------
    # One record to a one-argument sink (repro.engine.fanout); the
    # cwnd and ACK records are all numbers, so an ``array('d').extend``
    # can be their sink.
    def on_cwnd_change(self, sink: Sink) -> None:
        """Register ``sink((now, cwnd, ssthresh))`` per adjustment."""
        self._cwnd_sinks.append(sink)
        self._cwnd_fan = bind_fanout(self._cwnd_sinks)

    def on_loss_detected(self, sink: Sink) -> None:
        """Register ``sink((now, trigger, seq))``; trigger is
        ``"dupack"`` or ``"timeout"``."""
        self._loss_sinks.append(sink)
        self._loss_fan = bind_fanout(self._loss_sinks)

    def on_send(self, sink: Sink) -> None:
        """Register ``sink((now, packet))`` per transmitted packet."""
        self._send_sinks.append(sink)
        self._send_fan = bind_fanout(self._send_sinks)

    def on_ack(self, sink: Sink) -> None:
        """Register ``sink((now, ack, uid))`` per arriving ACK.

        Feeds the ACK-compression analysis, which measures inter-arrival
        spacing of ACKs at the source.
        """
        self._ack_sinks.append(sink)
        self._ack_fan = bind_fanout(self._ack_sinks)

    def on_rtt_sample(self, sink: Sink) -> None:
        """Register ``sink((now, rtt_seconds))`` per accepted RTT
        measurement.

        Fires only for samples the estimator itself accepts — Karn's
        rule (no timing across retransmissions) applies before the
        observers see anything, so the fan-out observes exactly the
        distribution the RTO computation consumed.
        """
        self._rtt_sinks.append(sink)
        self._rtt_fan = bind_fanout(self._rtt_sinks)

    # ------------------------------------------------------------------
    # Strategy toolkit — the sanctioned calls a CongestionControl makes
    # back into its transport (see docs/algorithms.md).
    # ------------------------------------------------------------------
    def notify_cwnd(self) -> None:
        """Fan the current (cwnd, ssthresh) out to the cwnd observers."""
        fan = self._cwnd_fan
        if fan is not None:
            fan((self._sim.now, self.cwnd, self.ssthresh))

    def emit_loss_event(self, trigger: str) -> None:
        """Count a loss detection and notify the loss observers."""
        self.loss_events += 1
        fan = self._loss_fan
        if fan is not None:
            fan((self._sim.now, trigger, self.snd_una))

    def clear_rtt_sample(self) -> None:
        """Abandon the in-flight RTT measurement (Karn's rule)."""
        self._timed_seq = None

    def restart_rexmt(self) -> None:
        """(Re)arm the retransmission timer at the current RTO."""
        self._rexmt.start_seconds(self.rtt.rto())

    def cancel_rexmt(self) -> None:
        """Disarm the retransmission timer."""
        self._rexmt.cancel()

    def retransmit_head(self) -> None:
        """Resend the lowest unacknowledged segment."""
        self._transmit(self.snd_una)

    def send_next(self) -> None:
        """Transmit one new segment at ``snd_nxt`` (no window check)."""
        nxt = self.snd_nxt
        self._transmit(nxt)
        self.snd_nxt = nxt + 1

    def _fill_back_to_back(self) -> None:
        """Send as many packets as the window permits, back to back.

        This is the nonpaced behavior: a window increase triggered by an
        ACK immediately releases two packets (the slot the ACK freed plus
        the increment), with no artificial spacing.
        """
        # ACKs only arrive via scheduled events, so snd_una and the
        # usable window are loop invariants here; snd_nxt is still
        # written back every iteration so send observers see live state.
        wnd = self._cc_usable_window(self)
        una = self.snd_una
        nxt = self.snd_nxt
        while nxt - una < wnd:
            self._transmit(nxt)
            nxt += 1
            self.snd_nxt = nxt

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin transmitting (the connection pre-exists; no handshake)."""
        if self._started:
            raise ProtocolError(f"conn {self.conn_id}: started twice")
        self._started = True
        if self.control.adaptive:
            self.notify_cwnd()
        self.fill_window()

    # ------------------------------------------------------------------
    # Receiving ACKs
    # ------------------------------------------------------------------
    def deliver(self, packet: Packet) -> None:
        """Process an arriving ACK (PacketSink interface)."""
        if packet.kind is not PacketKind.ACK:
            raise ProtocolError(f"conn {self.conn_id}: sender got non-ACK {packet!r}")
        self.acks_received += 1
        ack = packet.ack
        fan = self._ack_fan
        if fan is not None:
            fan((self._sim.now, ack, packet.uid))
        if ack > self._high_seq:
            raise ProtocolError(
                f"conn {self.conn_id}: ACK {ack} beyond highest sent {self._high_seq}"
            )
        if ack > self.snd_una:
            self._on_new_ack(ack)
        elif self._reliable and ack == self.snd_una and self.snd_nxt > self.snd_una:
            self._cc_dupack(self)
        # ACKs below snd_una are stale remnants of go-back-N; ignored.

    def _on_new_ack(self, ack: int) -> None:
        if self._cc_ack_advanced(self, ack):
            return  # the strategy replaced the whole path (Reno exit)
        self.snd_una = ack
        # After a go-back-N reset, a cumulative ACK can cover data the
        # receiver had cached out of order; transmission resumes past it.
        if self.snd_nxt < ack:
            self.snd_nxt = ack
        if self._reliable:
            self.dupacks = 0
            # RTT sample (Karn: the timed sequence is cleared on any loss).
            if self._timed_seq is not None and ack > self._timed_seq:
                now = self._sim.now
                self.rtt.sample(now - self._timed_at)
                self._timed_seq = None
                fan = self._rtt_fan
                if fan is not None:
                    fan((now, now - self._timed_at))
            self._cc_grow(self)
            if self.packets_out == 0:
                self._rexmt.cancel()
            else:
                self._rexmt.start_seconds(self.rtt.rto())
        self.fill_window()

    # ------------------------------------------------------------------
    # Loss handling
    # ------------------------------------------------------------------
    def trigger_loss(self, trigger: str) -> None:
        """The transport's loss reaction around the strategy's window cut.

        Sequence: loss observers fire, the strategy updates
        cwnd/ssthresh, the cwnd observers see the collapse, Karn's rule
        clears the RTT sample, then recovery transmits — go-back-N on
        timeout, head retransmit on duplicate ACKs.
        """
        self.emit_loss_event(trigger)
        self._cc_on_loss(self, trigger)
        self.notify_cwnd()
        self._timed_seq = None  # Karn's rule
        if trigger == "timeout":
            # BSD timeout recovery is go-back-N: everything past snd_una
            # is treated as unsent and slow start re-sends it in order.
            self.dupacks = 0
            self.snd_nxt = self.snd_una
            self.restart_rexmt()
            self.fill_window()
        else:
            # Fast retransmit resends ONLY the missing segment and keeps
            # snd_nxt where it was (BSD saves and restores it), so data
            # the receiver already cached is never sent again.  Re-sending
            # it would draw duplicate ACKs for packets that were never
            # lost and lock the sender into spurious-retransmit cycles.
            self.restart_rexmt()
            self.retransmit_head()
            self.fill_window()

    def _on_timeout(self) -> None:
        if self.packets_out == 0:
            return  # stale timer; nothing outstanding
        self.timeouts += 1
        self.rtt.on_timeout()
        self.trigger_loss("timeout")

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def _transmit(self, seq: int) -> None:
        now = self._sim.now
        is_retransmit = seq < self._high_seq
        packet = Packet(
            conn_id=self.conn_id,
            kind=PacketKind.DATA,
            seq=seq,
            size=self.options.data_packet_bytes,
            created_at=now,
            is_retransmit=is_retransmit,
        )
        if is_retransmit:
            self.retransmits += 1
        else:
            self._high_seq = seq + 1
            if self._reliable and self._timed_seq is None:
                self._timed_seq = seq
                self._timed_at = now
        self.packets_sent += 1
        if self._reliable and not self._rexmt.armed:
            self._rexmt.start_seconds(self.rtt.rto())
        fan = self._send_fan
        if fan is not None:
            fan((now, packet))
        self._host.send(packet, self.destination)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(conn={self.conn_id}, "
            f"algo={type(self.control).__name__}, cwnd={self.cwnd:.2f}, "
            f"ssthresh={self.ssthresh:.1f}, una={self.snd_una}, nxt={self.snd_nxt})"
        )
