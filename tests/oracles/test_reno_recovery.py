"""Oracle: Reno fast recovery against the textbook state machine.

SNIPPETS.md §3 states Reno's reaction to duplicate ACKs, with one MSS
as one packet here:

- on the third duplicate ACK, ``ssthresh = cwnd / 2`` and
  ``cwnd = ssthresh + 3``;
- each further duplicate ACK inflates ``cwnd`` by one;
- the next ACK for new data deflates ``cwnd`` to ``ssthresh``.

The simulator's ``reno`` strategy is 4.3-reno, whose cut is
``ssthresh = max(min(cwnd/2, maxwnd), 2)``.  It deviates from the
snippet by exactly two rules, each applied on top of the snippet's
values below:

- **the** ``min_ssthresh`` **floor**: ``ssthresh`` never falls below 2
  packets (the paper's footnote 9).  It binds only below a 4-packet
  window, so it has its own case under the table.
- **the** ``maxwnd`` **cap**: ``ssthresh`` and every inflated ``cwnd``
  stop at the receiver's advertised window.  It binds on the
  ``maxwnd = 10`` rows whose window would pass 10.

The table crosses starting windows (odd ones included, so ``cwnd / 2``
is a half), the number of duplicate ACKs after the third, and the
default ``maxwnd`` against ``maxwnd = 10``.  The strategy is built
through ``create_control("reno")`` and driven as
``tests/tcp/test_reno.py`` drives it: ACKs delivered straight to a
sender whose host only records what it sends.  Every value is an
integer or an exact half, so the tolerance is 0 (table in
``docs/analysis_methods.md``).
"""

import pytest

from repro.engine import Simulator
from repro.tcp import Sender, TcpOptions, create_control
from tests.tcp.conftest import FakeHost, make_ack

#: Packets.  Exact halves and integers; see the module docstring.
TOLERANCE = 0

DEFAULT_MAXWND = TcpOptions().maxwnd
MIN_SSTHRESH = TcpOptions().min_ssthresh

CWNDS = (4, 5, 7, 8, 15, 16, 33, 64)
FURTHER_DUPACKS = (0, 1, 2, 5)
MAXWNDS = (DEFAULT_MAXWND, 10)


def _snippet(cwnd, further):
    """SNIPPETS.md §3: ``(ssthresh, cwnd on the third duplicate ACK,
    cwnd after `further` more, cwnd after the next new ACK)``."""
    ssthresh = cwnd / 2
    inflated = ssthresh + 3
    return ssthresh, inflated, inflated + further, ssthresh


def _expected(cwnd, further, maxwnd):
    """The snippet with the simulator's floor and cap applied."""
    ssthresh = max(min(_snippet(cwnd, further)[0], maxwnd), MIN_SSTHRESH)
    inflated = min(ssthresh + 3, maxwnd)
    return ssthresh, inflated, min(inflated + further, maxwnd), ssthresh


def _loaded_reno(cwnd, maxwnd):
    """A started Reno sender with ``min(cwnd, maxwnd)`` packets out."""
    sim = Simulator(strict=True)
    sender = Sender(sim, FakeHost(sim), conn_id=1, destination="host2",
                    options=TcpOptions(initial_cwnd=float(cwnd), maxwnd=maxwnd),
                    control=create_control("reno"))
    sender.start()
    return sender


def _drive(cwnd, further, maxwnd):
    """The four measured ``(ssthresh, cwnd)`` stages of one recovery."""
    sender = _loaded_reno(cwnd, maxwnd)
    before = (sender.ssthresh, sender.cwnd)
    for _ in range(2):
        sender.deliver(make_ack(1, 0))
    assert (sender.ssthresh, sender.cwnd) == before  # two are not a loss
    sender.deliver(make_ack(1, 0))
    assert sender.control.in_recovery
    ssthresh, inflated = sender.ssthresh, sender.cwnd
    for _ in range(further):
        sender.deliver(make_ack(1, 0))
    ridden = sender.cwnd
    sender.deliver(make_ack(1, 1))  # the retransmitted head arrived
    assert not sender.control.in_recovery
    assert sender.control.fast_recoveries == 1
    return ssthresh, inflated, ridden, sender.cwnd


@pytest.mark.parametrize("maxwnd", MAXWNDS, ids=["maxwnd-default", "maxwnd10"])
@pytest.mark.parametrize("further", FURTHER_DUPACKS,
                         ids=[f"further{n}" for n in FURTHER_DUPACKS])
@pytest.mark.parametrize("cwnd", CWNDS, ids=[f"cwnd{n}" for n in CWNDS])
def test_fast_recovery_follows_the_state_machine(cwnd, further, maxwnd):
    measured = _drive(cwnd, further, maxwnd)
    expected = _expected(cwnd, further, maxwnd)
    assert max(abs(m - e) for m, e in zip(measured, expected)) <= TOLERANCE
    if cwnd / 2 + 3 + further <= maxwnd:
        assert expected == _snippet(cwnd, further)  # no rule binds


def test_the_cap_binds_on_the_table():
    """The ``maxwnd`` rule is exercised, not vacuous: on these rows the
    snippet's window passes 10 and the simulator stops at it."""
    capped = [(cwnd, further) for cwnd in CWNDS for further in FURTHER_DUPACKS
              if _snippet(cwnd, further)[2] > 10]
    assert len(capped) == 19
    for cwnd, further in capped:
        assert _drive(cwnd, further, 10)[2] == 10


@pytest.mark.parametrize("cwnd", [2, 3])
def test_the_floor_binds_below_four(cwnd):
    """The ``min_ssthresh`` rule: the snippet's ``cwnd / 2`` (1, 1.5)
    is raised to 2, and recovery rides on from there."""
    assert _snippet(cwnd, 0)[0] < MIN_SSTHRESH
    assert _drive(cwnd, 1, DEFAULT_MAXWND) == (2.0, 5.0, 6.0, 2.0)
