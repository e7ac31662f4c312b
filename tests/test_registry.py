"""The registry contract, checked once per pluggable policy.

Window algorithms (``repro.tcp``) and queue disciplines (``repro.net``)
resolve names through one :class:`~repro.registry.Registry` class.  Each
rule below runs on both, through that policy's public functions.
"""

import re
from typing import Callable, NamedTuple

import pytest

from repro.errors import ConfigurationError
from repro.net import (
    DropTailQueue,
    create_queue,
    discipline_names,
    register_discipline,
)
from repro.net.disciplines import DISCIPLINES
from repro.registry import Registry
from repro.tcp import (
    TahoeControl,
    algorithm_names,
    create_control,
    register_algorithm,
)
from repro.tcp.congestion import ALGORITHMS


class GainControl(TahoeControl):
    """A conforming strategy with one validated parameter."""

    def __init__(self, gain: float = 1.0) -> None:
        super().__init__()
        if gain <= 0:
            raise ValueError(f"gain must be positive, got {gain}")
        self.gain = gain


class GainQueue(DropTailQueue):
    """A conforming discipline with one validated parameter."""

    def __init__(self, name, capacity, rng=None, *, strict=None, gain=1.0):
        super().__init__(name, capacity, rng, strict=strict)
        if gain <= 0:
            raise ValueError(f"gain must be positive, got {gain}")
        self.gain = gain


class NotAQueue:
    """Deliberately not a DropTailQueue subclass."""


def make_object(*args, **kwargs):
    """A factory whose product is neither a strategy nor a queue."""
    return object()


def _create_queue(name, params=()):
    return create_queue(name, "q", 8, params)


class Policy(NamedTuple):
    registry: Registry
    register: Callable
    create: Callable  # (name, params) -> product
    names: Callable
    gain_class: type


POLICIES = {
    "algorithm": Policy(ALGORITHMS, register_algorithm, create_control,
                        algorithm_names, GainControl),
    "queue discipline": Policy(DISCIPLINES, register_discipline, _create_queue,
                               discipline_names, GainQueue),
}


@pytest.fixture(params=sorted(POLICIES), ids=["algorithm", "discipline"])
def policy(request, monkeypatch):
    """One policy, on a copy of its table so tests register freely."""
    policy = POLICIES[request.param]
    monkeypatch.setattr(policy.registry, "_factories",
                        dict(policy.registry._factories))
    return policy


class TestRegistryContract:
    def test_one_class_behind_the_public_functions(self, policy):
        assert type(policy.registry) is Registry
        assert policy.names() == policy.registry.names()

    @pytest.mark.parametrize("name", ["", "Tahoe", "my algo", "a-b", "x!", None])
    def test_name_must_be_lowercase_identifier(self, policy, name):
        with pytest.raises(ConfigurationError, match="lowercase identifier"):
            policy.register(name, policy.gain_class)

    def test_underscores_are_allowed(self, policy):
        policy.register("gain_2", policy.gain_class)
        assert "gain_2" in policy.names()

    def test_duplicate_registration_refused(self, policy):
        for name in policy.names():
            with pytest.raises(ConfigurationError, match="already registered"):
                policy.register(name, policy.registry.factory(name))

    def test_unknown_name_lists_the_registered_names(self, policy):
        kind = policy.registry.kind
        listing = ", ".join(policy.names())
        with pytest.raises(ConfigurationError, match=re.escape(
                f"unknown {kind} 'codel'; registered: {listing}")):
            policy.create("codel")

    def test_params_reach_the_factory(self, policy):
        policy.register("gain", policy.gain_class)
        assert policy.create("gain", {"gain": 2.5}).gain == 2.5

    @pytest.mark.parametrize("params", [{"nope": 1}, {"gain": -1.0}],
                             ids=["unknown-key", "out-of-range"])
    def test_rejected_params_become_configuration_error(self, policy, params):
        policy.register("gain", policy.gain_class)
        kind = policy.registry.kind
        with pytest.raises(ConfigurationError,
                           match=f"^{kind} 'gain' rejected params") as info:
            policy.create("gain", params)
        assert isinstance(info.value.__cause__, (TypeError, ValueError))

    def test_wrong_product_type_refused(self, policy):
        policy.registry.register("broken", make_object)
        product = policy.registry.product.__name__
        with pytest.raises(ConfigurationError, match=f"not a {product}$"):
            policy.create("broken")

    def test_discipline_must_derive_from_droptail(self):
        with pytest.raises(ConfigurationError, match="DropTailQueue"):
            register_discipline("notaqueue", NotAQueue)
        with pytest.raises(ConfigurationError, match="DropTailQueue"):
            register_discipline("function", make_object)
        assert "notaqueue" not in discipline_names()
