"""Retry policy: validation, backoff growth, deterministic jitter."""

import pytest

from repro.errors import ConfigurationError
from repro.resilience import (
    ResilienceConfig,
    deterministic_fraction,
    policy,
    resolve_resilience,
)


class TestDeterministicFraction:
    def test_in_unit_interval_and_reproducible(self):
        values = [deterministic_fraction("key", attempt)
                  for attempt in range(50)]
        assert all(0.0 <= value < 1.0 for value in values)
        assert values == [deterministic_fraction("key", attempt)
                          for attempt in range(50)]

    def test_distinct_inputs_distinct_outputs(self):
        assert (deterministic_fraction("a", 1)
                != deterministic_fraction("a", 2)
                != deterministic_fraction("b", 1))

    def test_joined_on_pipe_not_concatenated(self):
        # ("ab", 1) and ("a", "b1") must not collide.
        assert (deterministic_fraction("ab", 1)
                != deterministic_fraction("a", "b1"))


class TestResilienceConfigValidation:
    def test_defaults_are_valid(self):
        config = ResilienceConfig()
        assert config.timeout is None
        assert config.max_attempts == 3

    @pytest.mark.parametrize("kwargs", [
        {"timeout": 0.0},
        {"timeout": -1.0},
        {"retries": -1},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(**kwargs)

    def test_max_attempts_counts_first_run(self):
        assert ResilienceConfig(retries=0).max_attempts == 1
        assert ResilienceConfig(retries=4).max_attempts == 5


class TestBackoffDelay:
    def test_grows_exponentially_then_caps(self, monkeypatch):
        monkeypatch.setattr(policy, "BACKOFF_BASE", 1.0)
        monkeypatch.setattr(policy, "BACKOFF_CAP", 4.0)
        monkeypatch.setattr(policy, "JITTER", 0.0)
        config = ResilienceConfig()
        delays = [config.backoff_delay("k", attempt)
                  for attempt in (1, 2, 3, 4, 5)]
        assert delays == [1.0, 2.0, 4.0, 4.0, 4.0]

    def test_jitter_is_bounded_and_deterministic(self, monkeypatch):
        monkeypatch.setattr(policy, "BACKOFF_BASE", 1.0)
        config = ResilienceConfig()
        first = config.backoff_delay("key", 1)
        assert 1.0 <= first <= 1.5
        assert first == config.backoff_delay("key", 1)
        # A different point backs off by a different amount.
        assert first != config.backoff_delay("other", 1)

    def test_attempt_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ResilienceConfig().backoff_delay("k", 0)


class TestResolveResilience:
    def test_none_and_false_disable(self):
        assert resolve_resilience(None) is None
        assert resolve_resilience(False) is None

    def test_true_gives_defaults(self):
        assert resolve_resilience(True) == ResilienceConfig()

    def test_config_passes_through(self):
        config = ResilienceConfig(retries=7)
        assert resolve_resilience(config) is config

    def test_other_types_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_resilience(3)
