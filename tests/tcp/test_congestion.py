"""Unit tests for the congestion-control strategies and the registry."""

import pytest

from repro.errors import ConfigurationError, ProtocolError
from repro.tcp import (
    AimdControl,
    CongestionControl,
    FixedWindowControl,
    RenoControl,
    Sender,
    TahoeControl,
    TcpOptions,
    algorithm_names,
    create_control,
    register_algorithm,
)
from repro.tcp.congestion import ALGORITHMS


@pytest.fixture
def scratch_registry(monkeypatch):
    """Snapshot the registry so tests can register throwaway names."""
    monkeypatch.setattr(ALGORITHMS, "_factories", dict(ALGORITHMS._factories))


class Aiad(CongestionControl):
    """An extension strategy, defined at module scope as registration
    requires."""


class TestRegistry:
    """The built-ins; the rules both registries share are in
    ``tests/test_registry.py``."""

    def test_builtins_registered(self):
        assert algorithm_names() == ["aimd", "fixed", "paced", "reno", "tahoe"]

    def test_create_control_builds_the_right_types(self):
        assert type(create_control("tahoe")) is TahoeControl
        assert type(create_control("reno")) is RenoControl
        control = create_control("fixed", {"window": 7})
        assert isinstance(control, FixedWindowControl)
        assert control.window == 7

    def test_params_reach_the_factory(self):
        control = create_control("aimd", {"a": 2.0, "b": 0.25, "window": 9})
        assert (control.a, control.b, control.window) == (2.0, 0.25, 9)

    def test_swapped_entry_resolves(self, monkeypatch):
        monkeypatch.setitem(ALGORITHMS._factories, "tahoe", RenoControl)
        assert type(create_control("tahoe")) is RenoControl

    def test_extension_registration_round_trip(self, scratch_registry):
        register_algorithm("aiad", Aiad)
        assert "aiad" in algorithm_names()
        assert type(create_control("aiad")) is Aiad


def _sender(sim, host, control, **options):
    return Sender(sim, host, conn_id=1, destination="h2",
                  options=TcpOptions(**options), control=control)


class TestAimdControl:
    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            AimdControl(a=0.0)
        with pytest.raises(ConfigurationError):
            AimdControl(b=1.0)
        with pytest.raises(ConfigurationError):
            AimdControl(b=0.0)
        with pytest.raises(ConfigurationError):
            AimdControl(window=0)

    def test_no_slow_start_growth_is_additive(self, sim, host):
        t = _sender(sim, host, AimdControl(a=1.0, b=0.5))
        t.cwnd = 4.0
        t.control.grow(t)
        assert t.cwnd == pytest.approx(4.0 + 1.0 / 4.0)

    def test_growth_scales_with_a(self, sim, host):
        t = _sender(sim, host, AimdControl(a=2.0, b=0.5))
        t.cwnd = 4.0
        t.control.grow(t)
        assert t.cwnd == pytest.approx(4.5)

    def test_loss_is_multiplicative_with_floor_one(self, sim, host):
        t = _sender(sim, host, AimdControl(a=1.0, b=0.5))
        t.cwnd = 10.0
        t.control.on_loss(t, "dupack")
        assert t.cwnd == pytest.approx(5.0)
        t.cwnd = 1.5
        t.control.on_loss(t, "timeout")
        assert t.cwnd == 1.0  # never below one packet

    def test_window_cap_bounds_the_climb(self, sim, host):
        t = _sender(sim, host, AimdControl(a=1.0, b=0.5, window=6))
        t.cwnd = 6.0
        t.control.grow(t)
        assert t.cwnd == 6.0
        assert t.control.usable_window(t) == 6

    def test_reliable_and_adaptive(self):
        assert AimdControl.reliable is True
        assert AimdControl.adaptive is True


class TestFixedWindowControl:
    def test_window_validation(self):
        with pytest.raises(ProtocolError):
            FixedWindowControl(0)

    def test_attach_mirrors_window_into_cwnd(self, sim, host):
        t = _sender(sim, host, FixedWindowControl(8))
        assert t.cwnd == 8.0
        assert t.control.usable_window(t) == 8

    def test_machinery_flags_off(self):
        assert FixedWindowControl.reliable is False
        assert FixedWindowControl.adaptive is False


class TestTahoeControl:
    def test_slow_start_doubles_per_rtt(self, sim, host):
        t = _sender(sim, host, TahoeControl())
        t.cwnd, t.ssthresh = 2.0, 16.0
        t.control.grow(t)
        assert t.cwnd == 3.0

    def test_loss_collapses_to_one(self, sim, host):
        t = _sender(sim, host, TahoeControl())
        t.cwnd = 12.0
        t.control.on_loss(t, "timeout")
        assert t.cwnd == 1.0
        assert t.ssthresh == 6.0
