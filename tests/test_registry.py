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
from repro.registry import Registry, _probe
from repro.scenarios.config import FlowSpec, QueueSpec
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


def _flow_spec(name, params=()):
    return FlowSpec("a", "b", algorithm=name, params=params)


class ListGainControl(TahoeControl):
    """A strategy whose one parameter is a list (unhashable)."""

    def __init__(self, gains=(1.0,)) -> None:
        super().__init__()
        if min(gains) <= 0:
            raise ValueError(f"gains must be positive, got {gains}")


class ListGainQueue(DropTailQueue):
    """A discipline whose one parameter is a list (unhashable)."""

    def __init__(self, name, capacity, rng=None, *, strict=None,
                 gains=(1.0,)):
        super().__init__(name, capacity, rng, strict=strict)
        if min(gains) <= 0:
            raise ValueError(f"gains must be positive, got {gains}")


class Policy(NamedTuple):
    registry: Registry
    register: Callable
    create: Callable  # (name, params) -> product
    names: Callable
    gain_class: type
    spec: Callable  # (name, params) -> the config field that validates
    list_class: type


POLICIES = {
    "algorithm": Policy(ALGORITHMS, register_algorithm, create_control,
                        algorithm_names, GainControl, _flow_spec,
                        ListGainControl),
    "queue discipline": Policy(DISCIPLINES, register_discipline, _create_queue,
                               discipline_names, GainQueue, QueueSpec,
                               ListGainQueue),
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


class TestValidationMemo:
    """``FlowSpec`` and ``QueueSpec`` probe their policy once per distinct
    (factory, params) in a process — and only what passed is remembered."""

    @pytest.fixture(autouse=True)
    def _empty_memo(self):
        _probe.cache_clear()
        yield
        _probe.cache_clear()

    def test_an_accepted_set_is_probed_once(self, policy):
        built = []

        class Counted(policy.gain_class):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("gain"))
                super().__init__(*args, **kwargs)

        policy.register("gain", Counted)
        for _ in range(3):
            policy.spec("gain", {"gain": 2.0})
        policy.spec("gain", {"gain": 3.0})
        assert built == [2.0, 3.0]

    def test_a_rejected_set_raises_every_time(self, policy):
        policy.register("gain", policy.gain_class)
        for _ in range(3):
            with pytest.raises(ConfigurationError, match="rejected params"):
                policy.spec("gain", {"gain": -1.0})

    def test_a_factory_swapped_in_under_a_name_is_probed(self, policy,
                                                         monkeypatch):
        policy.register("gain", policy.gain_class)
        policy.spec("gain", {"gain": 2.0})

        class Stricter(policy.gain_class):
            def __init__(self, *args, gain=1.0, **kwargs):
                if gain > 1.0:
                    raise ValueError("gain above 1")
                super().__init__(*args, gain=gain, **kwargs)

        monkeypatch.setitem(policy.registry._factories, "gain", Stricter)
        with pytest.raises(ConfigurationError, match="gain above 1"):
            policy.spec("gain", {"gain": 2.0})

    def test_a_list_valued_param_still_validates(self, policy):
        policy.register("gains", policy.list_class)
        for _ in range(2):
            spec = policy.spec("gains", {"gains": [1.0, 2.0]})
            assert spec.params == (("gains", [1.0, 2.0]),)
            with pytest.raises(ConfigurationError, match="rejected params"):
                policy.spec("gains", {"gains": [1.0, -2.0]})
        assert _probe.cache_info().currsize == 0
