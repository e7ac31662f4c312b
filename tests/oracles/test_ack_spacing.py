"""Oracle: ACK spacing under compression equals the ACK transmission time.

Paper §4.2: an ACK that queues behind a data packet leaves the
bottleneck back to back with the ACKs queued behind it, so a compressed
cluster departs one ACK transmission time apart — the bottleneck's line
rate for 50-byte packets, whatever the queue did before.  The closed form
needs nothing from the simulator: ``ack_packet_bytes * 8 / bandwidth``.

Figure 8's configuration (fixed windows 30/25, infinite buffers) is used
because its steady state compresses most ACKs on the reverse path.  A
gap counts as compressed below 0.75 data transmission times, the
threshold ``docs/analysis_methods.md`` uses at the source; every such
gap must be exactly one ACK transmission time.  The tolerance is float
accumulation only: each departure time is a sum of transmission and
propagation delays, so two paths to "the same" instant may differ in the
last bits (the worst case measured is 1e-14 s).  The tolerance table is
in ``docs/analysis_methods.md``.
"""

import pytest

from repro.scenarios import paper, run

#: Seconds.  Float accumulation only; see the module docstring.
TOLERANCE = 1e-9


@pytest.fixture(scope="module")
def figure8():
    config = paper.figure8(duration=200.0, warmup=100.0)
    return config, run(config)


def _compressed_ack_gaps(config, result, port):
    """(all ACK gaps, the compressed ones) after warmup at ``port``."""
    times = [departure.time
             for departure in result.traces.queue(port).ack_departures()
             if departure.time >= config.warmup]
    gaps = [later - earlier for earlier, later in zip(times, times[1:])]
    return gaps, [gap for gap in gaps if gap < 0.75 * config.data_tx_time]


@pytest.mark.parametrize("port", ["sw1->sw2", "sw2->sw1"])
def test_compressed_ack_gap_is_one_ack_transmission_time(figure8, port):
    config, result = figure8  # ack_tx_time: 50 B at 50 kbps, 8 ms
    _gaps, compressed = _compressed_ack_gaps(config, result, port)
    assert compressed
    assert max(abs(gap - config.ack_tx_time) for gap in compressed) <= TOLERANCE


def test_reverse_path_acks_are_mostly_compressed(figure8):
    """The row is not vacuous: on ``sw2->sw1`` at least half of the ACK
    gaps are compressed (912 of 1,144 when measured)."""
    config, result = figure8
    gaps, compressed = _compressed_ack_gaps(config, result, "sw2->sw1")
    assert len(compressed) >= len(gaps) / 2
