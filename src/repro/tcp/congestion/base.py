"""The congestion-control strategy interface.

The paper's Section 5 argument — clustering, ACK-compression and the
two-way synchronization modes are properties of *windowed nonpaced
transport*, not of Tahoe specifically — is an architectural claim: the
window-evolution policy must be swappable without touching the
machinery that sends, retransmits and times packets.  This module is
that seam.  :class:`~repro.tcp.sender.Sender` owns the mechanism
(sequence state, retransmit queue, RTO timer, observer fan-out);
a :class:`CongestionControl` owns the policy (how the window opens,
what a duplicate ACK means, how loss collapses the window).

One strategy instance belongs to exactly one sender: strategies may
keep per-flow state (Reno's recovery flag, AIMD's parameters).  Every
hook receives the owning transport ``t`` explicitly and reads live
transport state through it — never cache ``t.options`` or ``t.cwnd``
across calls, callers may replace them between ACKs.

Determinism contract (see ``docs/algorithms.md``): a strategy must be
a pure function of its constructor parameters and the transport state
it is handed.  No wall clock, no ambient ``random``, no I/O — a run is
a pure function of its :class:`~repro.scenarios.config.ScenarioConfig`,
and the result cache addresses runs by config hash alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, ClassVar

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.simulator import Simulator
    from repro.tcp.sender import Sender

__all__ = ["CongestionControl"]


class CongestionControl:
    """Window-evolution policy for one transport sender.

    Subclasses override the hooks below; the defaults describe a
    reliable adaptive algorithm that does nothing to its window (useful
    only as documentation — concrete strategies live next door).

    Strategies are slotted: the hooks run per ACK, and ``__slots__``
    keeps per-flow policy state compact and its attribute access cheap.
    Subclasses must declare their own ``__slots__`` (empty if stateless)
    or they silently regain a ``__dict__``.
    """

    __slots__ = ()

    #: Whether the transport runs its reliability machinery for this
    #: strategy: retransmission timer, RTT sampling, duplicate-ACK
    #: tracking and go-back-N recovery.  Fixed-window flows run over
    #: lossless scenarios and switch all of it off — with it, the
    #: timer's tick train alone would change the event sequence.
    reliable: ClassVar[bool] = True

    #: Whether the flow has a dynamic congestion window worth tracing.
    #: Gates :class:`~repro.metrics.cwnd_log.CwndLog` attachment (and
    #: with it the ``cwnds`` section of saved traces and fingerprints).
    adaptive: ClassVar[bool] = True

    def attach(self, t: "Sender") -> None:
        """Called once, at the end of ``Sender.__init__``.

        Override to seed transport window state (e.g. a fixed window
        writes ``t.cwnd``); must not schedule events or send packets.
        """

    def bind_fill(self, sim: "Simulator", t: "Sender") -> Callable[[], None] | None:
        """The fill seam: take over *when* the window is filled.

        Called once, from ``Sender.__init__`` after :meth:`attach`.
        ``None`` — every nonpaced strategy — leaves the transport's own
        back-to-back fill in place, at no per-packet cost.  A strategy
        that returns a callable replaces it: the transport calls it
        wherever it would have filled the window (start, every ACK of
        new data, after a loss reaction) and the strategy decides how
        many packets leave now (``t.send_next()``, never past its
        :meth:`usable_window`) and when to look again (its own wake-up
        event on ``sim``).  It must not touch reliability state —
        ``snd_una``, the timer, RTT sampling: pacing changes when
        packets leave, not what counts as outstanding.
        """
        return None

    def usable_window(self, t: "Sender") -> int:
        """How many packets may be outstanding right now (>= 1)."""
        return max(1, int(min(t.cwnd, float(t.options.maxwnd))))

    def ack_advanced(self, t: "Sender", ack: int) -> bool:
        """First crack at an ACK that advances ``snd_una``.

        Return ``True`` to declare the ACK fully handled (Reno's
        recovery exit replaces the whole new-ACK path); ``False`` to
        let the transport run its standard sequence — advance, RTT
        sample, :meth:`grow`, timer restart, window fill.
        """
        return False

    def grow(self, t: "Sender") -> None:
        """Open the window in response to an ACK of new data.

        Runs inside the transport's new-ACK path (reliable strategies
        only).  Implementations adjust ``t.cwnd``/``t.ssthresh`` and
        call ``t.notify_cwnd()`` if anything changed.
        """

    def dupack(self, t: "Sender") -> None:
        """Policy for a duplicate ACK with data outstanding.

        The transport has already counted the ACK; this hook owns
        ``t.dupacks`` bookkeeping and any retransmit/loss reaction.
        """

    def on_loss(self, t: "Sender", trigger: str) -> None:
        """Collapse the window after a detected loss.

        Runs inside ``t.trigger_loss`` between the loss observers and
        the cwnd notification; implementations update ``t.cwnd`` and
        ``t.ssthresh`` only — retransmission policy stays with the
        transport.  ``trigger`` is ``"dupack"`` or ``"timeout"``.
        """
