"""Oracle: one-way congestion epochs begin when the windows sum to C + 2.

Paper §3.1: the path holds C = B + 2P packets, and one-way congestion
epochs begin when the summed windows outgrow it.  The ``capacity``
experiment reads the summed ``⌊cwnd⌋`` of its three connections at each
epoch start (the first drop of the epoch).  Every epoch reads exactly
C + 2, and each of the two extra packets follows from the model's
accounting at the instant of that first drop:

- ``B``: the bottleneck buffer is full — ``B`` packets wait in it.
- ``+1``, the packet in transmission: the buffer counts waiting packets
  only (``net/port.py``), so the packet being serialized on the
  bottleneck is in flight but not in ``B``.  The paper counts it in the
  buffer (Figure 8's queue maxima are one higher for the same reason).
- ``2P``: the packets between the bottleneck and the ACK that releases
  the next send.  The ACK for a packet that left the server at ``d``
  opens a send that reaches the buffer at ``d + 2τ + δ``, where ``δ`` is
  the round trip beyond the bottleneck's propagation and data service:
  the ACK's bottleneck transmission, four access hops (data and ACK,
  serialization plus propagation each way) and the receive processing at
  both hosts, 9.5 ms.  The server, busy since before the epoch, has
  finished ``⌊(2τ + δ) / t_D⌋`` packets in that span — exactly 2P = 25
  here, because 2P is whole and ``δ`` is 0.12 of a data transmission
  time ``t_D``.
- ``+1``, the dropped packet: the first drop of an epoch is a packet its
  sender already counted in its window, so the windows sum to one more
  than the path holds.

The configurations are the ``capacity`` experiment's full ones.  Window
sums are whole packets and the closed form is exact, so the tolerance is
0 packets (table in ``docs/analysis_methods.md``).
"""

import math

import pytest

from repro.scenarios import paper, run

#: Packets.  See the module docstring.
TOLERANCE = 0


def _round_trip_excess(config):
    """``δ``: base round trip beyond ``2τ`` and the data service, in s.

    Data and ACK each cross two access links (sender's and receiver's).
    """
    serialize = (2 * (config.tcp.data_packet_bytes + config.tcp.ack_packet_bytes)
                 * 8.0 / config.access_bandwidth)
    return (config.ack_tx_time + 4 * config.access_propagation + serialize
            + 2 * config.host_processing_delay)


def _closed_form(config):
    """Summed ``⌊cwnd⌋`` at the first drop of an epoch."""
    two_way_trip = 2 * config.bottleneck_propagation + _round_trip_excess(config)
    in_flight = math.floor(two_way_trip / config.data_tx_time)
    return config.buffer_packets + 1 + in_flight + 1


@pytest.fixture(scope="module", params=[20, 40], ids=["B20", "B40"])
def capacity_run(request):
    config = paper.one_way(n_connections=3, propagation=1.0,
                           buffer_packets=request.param,
                           duration=400.0, warmup=150.0)
    return config, run(config)


def test_closed_form_is_c_plus_two(capacity_run):
    """At these parameters the derivation reduces to C + 2."""
    config, _result = capacity_run
    assert _round_trip_excess(config) < config.data_tx_time
    assert 2 * config.pipe_size == int(2 * config.pipe_size)
    assert _closed_form(config) == config.capacity + 2


def test_every_epoch_starts_at_the_closed_form(capacity_run):
    config, result = capacity_run
    epochs = result.epochs()
    assert len(epochs) >= 4  # 7 epochs at B = 20, 4 at B = 40 when measured
    queue = result.traces.queue("sw1->sw2").lengths
    for epoch in epochs:
        summed = sum(int(result.traces.cwnd(conn.conn_id).cwnd.value_at(epoch.start))
                     for conn in result.connections)
        assert abs(summed - _closed_form(config)) <= TOLERANCE, epoch.start
        assert queue.value_at(epoch.start) == config.buffer_packets
