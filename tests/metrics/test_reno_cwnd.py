"""Cwnd logging must cover every windowed sender, Reno included.

``TraceSet.watch_connection`` keys off the congestion-control
strategy's ``adaptive`` flag rather than on the sender's type, so Reno
(and any future windowed algorithm) gets a cwnd trace while fixed and
paced windows — which have nothing dynamic to log — do not.
"""

from types import SimpleNamespace

import pytest

from repro.engine import Simulator
from repro.metrics.trace import TraceSet
from repro.scenarios import FlowSpec, ScenarioConfig, run
from repro.tcp import RenoControl, Sender, TcpOptions
from tests.tcp.conftest import FakeHost, make_ack


def reno_config(**kwargs):
    defaults = dict(
        name="reno-cwnd",
        flows=(
            FlowSpec(src="host1", dst="host2", algorithm="reno"),
            FlowSpec(src="host2", dst="host1", algorithm="reno"),
        ),
        duration=40.0,
        warmup=10.0,
        bottleneck_propagation=0.01,
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


class TestScenarioLevel:
    def test_reno_connections_get_cwnd_logs(self):
        result = run(reno_config())
        assert sorted(result.traces.cwnds) == [1, 2]
        assert len(result.traces.cwnd(1).cwnd) > 0
        # The log is live: window sync queries work on Reno runs too.
        verdict = result.window_sync(1, 2)
        assert verdict is not None

    def test_fixed_window_flows_have_no_cwnd_log(self):
        config = ScenarioConfig(
            name="fixed-no-cwnd",
            flows=(FlowSpec(src="host1", dst="host2", algorithm="fixed",
                            window=8),),
            duration=10.0,
            warmup=2.0,
        )
        result = run(config)
        assert result.traces.cwnds == {}
        assert 1 in result.traces.acks


class TestFastRecoveryTrace:
    @pytest.fixture
    def watched_sender(self):
        sim = Simulator()
        sender = Sender(sim, FakeHost(sim), conn_id=1,
                        destination="host2",
                        options=TcpOptions(initial_cwnd=8.0),
                        control=RenoControl())
        traces = TraceSet()
        traces.watch_connection(SimpleNamespace(conn_id=1, sender=sender))
        sender.start()
        return sender, traces

    def test_fast_recovery_episode_is_fully_logged(self, watched_sender):
        sender, traces = watched_sender
        log = traces.cwnd(1)
        for _ in range(3):
            sender.deliver(make_ack(1, 0))
        assert sender.control.in_recovery
        # Entry: ssthresh=4, cwnd inflated to ssthresh+3=7 — not 1.
        assert log.cwnd.last_value == 7.0
        assert log.ssthresh.last_value == 4.0
        assert [event.trigger for event in log.losses] == ["dupack"]

        sender.deliver(make_ack(1, 0))  # 4th dup ACK inflates further
        assert log.cwnd.last_value == 8.0

        sender.deliver(make_ack(1, 4))  # new data: deflate, exit recovery
        assert not sender.control.in_recovery
        assert log.cwnd.last_value == 4.0

        # The Tahoe collapse-to-1 never appears in the series.
        values = [value for _, value in log.cwnd]
        assert 1.0 not in values
