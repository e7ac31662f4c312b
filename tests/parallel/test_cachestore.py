"""The shared result-cache store: TCP round trips and degradation.

Each test spins up a real :class:`SharedCacheServer` on a free
localhost port — the same code path ``repro cache serve`` runs — and
talks to it through :class:`SharedCacheClient`, the object the runner
receives for ``cache="tcp://host:port"``.
"""

import socket
import time

import pytest

from repro.errors import ConfigurationError
from repro.parallel import ParallelSweepRunner, resolve_cache
from repro.parallel.cache import ResultCache
from repro.parallel.cachestore import (
    SharedCacheClient,
    SharedCacheServer,
    parse_endpoint,
)
from repro.scenarios import sweep

# The fleet tests' three-point slice: small, and already importable by
# spawned processes.
from .test_worker_backend import CASES, CONFIGS, extract, make_config

KEY = "k" * 64
PAYLOAD = {"fwd": 0.5, "rev": 0.25}


@pytest.fixture
def store(tmp_path):
    with SharedCacheServer(tmp_path / "cache") as server:
        yield server


@pytest.fixture
def client(store):
    client = SharedCacheClient(store.host, store.port, timeout=5.0)
    yield client
    client.close()


class TestEndpoint:
    def test_parse_tcp_url(self):
        assert parse_endpoint("tcp://10.0.0.1:9999") == ("10.0.0.1", 9999)

    def test_bare_host_port(self):
        assert parse_endpoint("localhost:4000") == ("localhost", 4000)

    def test_missing_host_defaults_to_localhost(self):
        assert parse_endpoint("tcp://:4000") == ("localhost", 4000)

    @pytest.mark.parametrize("url", ["tcp://host", "tcp://host:port", "9999x"])
    def test_bad_endpoint_is_configuration_error(self, url):
        with pytest.raises(ConfigurationError, match="HOST:PORT"):
            parse_endpoint(url)


class TestRoundTrip:
    def test_miss_then_put_then_hit(self, client):
        assert client.get(KEY) is None
        client.put(KEY, PAYLOAD)
        assert client.get(KEY) == PAYLOAD
        assert (client.hits, client.misses) == (1, 1)

    def test_put_lands_in_the_server_cache(self, store, client):
        client.put(KEY, PAYLOAD)
        assert store.cache.get(KEY) == PAYLOAD

    def test_two_clients_share_the_store(self, store, client):
        client.put(KEY, PAYLOAD)
        other = SharedCacheClient(store.host, store.port)
        try:
            assert other.get(KEY) == PAYLOAD
        finally:
            other.close()

    def test_duplicate_equal_put_dedupes(self, store, client):
        client.put(KEY, PAYLOAD)
        client.put(KEY, dict(PAYLOAD))
        assert store.cache.get(KEY) == PAYLOAD
        assert store.cache.quarantined == 0

    def test_conflicting_put_quarantines_both_on_server(self, store, client):
        client.put(KEY, PAYLOAD)
        with pytest.warns(RuntimeWarning, match="quarantined conflicting"):
            client.put(KEY, {"fwd": 0.9, "rev": 0.9})
        assert store.cache.get(KEY) is None        # no entry survives
        assert store.cache.quarantined == 1
        quarantine = store.cache.quarantine_dir
        assert (quarantine / f"{KEY}.conflict.json").exists()

    def test_explicit_quarantine_verb(self, store, client):
        client.put(KEY, PAYLOAD)
        with pytest.warns(RuntimeWarning, match="quarantined conflicting"):
            client.quarantine_conflict(KEY, PAYLOAD, {"fwd": 1.0})
        assert client.quarantined == 1
        assert store.cache.get(KEY) is None

    def test_stats_reports_server_counters(self, store, client):
        client.put(KEY, PAYLOAD)
        client.get(KEY)
        stats = client.stats()
        assert stats["t"] == "cache-stats-reply"
        assert stats["entries"] == 1
        assert stats["root"] == str(store.cache.root)


class TestDegradation:
    def _free_port(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            return probe.getsockname()[1]

    def test_unreachable_store_degrades_with_one_warning(self):
        client = SharedCacheClient("127.0.0.1", self._free_port(), timeout=0.5)
        with pytest.warns(RuntimeWarning, match="unreachable"):
            assert client.get(KEY) is None
        assert client.degraded
        # Later traffic is silent no-ops, not repeated warnings or retries.
        client.put(KEY, PAYLOAD)
        assert client.get(KEY) is None
        assert client.stats() is None

    def test_server_death_mid_conversation_degrades(self, tmp_path):
        server = SharedCacheServer(tmp_path / "cache").start()
        client = SharedCacheClient(server.host, server.port, timeout=2.0)
        client.put(KEY, PAYLOAD)
        server.stop()
        with pytest.warns(RuntimeWarning, match="unreachable"):
            for _ in range(3):  # the first request after death degrades
                if client.get(KEY) is None and client.degraded:
                    break
        assert client.degraded


class TestStop:
    def test_stop_wakes_the_accept_thread(self, tmp_path):
        server = SharedCacheServer(tmp_path / "cache").start()
        accept_thread = server._accept_thread
        # An open conversation must not delay the stop either.
        client = SharedCacheClient(server.host, server.port, timeout=2.0)
        client.put(KEY, PAYLOAD)
        started = time.perf_counter()
        server.stop()
        elapsed = time.perf_counter() - started
        client.close()
        assert elapsed < 1.0
        assert not accept_thread.is_alive()
        server.stop()  # idempotent: the listener is already closed


class TestResolveCache:
    def test_tcp_url_resolves_to_shared_client(self, store):
        cache = resolve_cache(f"tcp://{store.host}:{store.port}")
        assert isinstance(cache, SharedCacheClient)
        assert (cache.host, cache.port) == (store.host, store.port)
        cache.close()

    def test_duck_typed_cache_passes_through(self, store):
        client = SharedCacheClient(store.host, store.port)
        try:
            assert resolve_cache(client) is client
        finally:
            client.close()

    def test_path_still_resolves_to_local_cache(self, tmp_path):
        cache = resolve_cache(tmp_path / "cache")
        assert isinstance(cache, ResultCache)


class TestRunnerClosesTheClientItOpened:
    """``cache="tcp://..."`` makes the runner open a client; nobody else
    can close it.  An unclosed one is a ``ResourceWarning`` when the
    runner is collected, which tier-1 turns into this test's failure."""

    def _conversations_end(self, store):
        deadline = time.monotonic() + 2.0
        while store._active and time.monotonic() < deadline:
            time.sleep(0.01)
        return not store._active

    def test_a_url_sweep_leaves_no_socket_and_no_conversation(self, store):
        url = f"tcp://{store.host}:{store.port}"
        for hits in (0, len(CASES)):  # cold, then warm: two clients
            progress = []
            sweep(make_config, CASES, extract, cache=url,
                  on_progress=progress.append)
            assert sum(event.cached for event in progress) == hits
            assert self._conversations_end(store)
        assert store.connections == 2

    def test_the_runner_reconnects_for_its_next_sweep(self, store):
        runner = ParallelSweepRunner(cache=f"tcp://{store.host}:{store.port}")
        cold = runner.run_configs(CONFIGS, extract)
        assert runner.cache._sock is None
        assert runner.run_configs(CONFIGS, extract) == cold
        assert (runner.cache.hits, runner.cache._sock) == (len(CONFIGS), None)

    def test_a_client_the_caller_supplied_is_left_open(self, store, client):
        runner = ParallelSweepRunner(cache=client)
        runner.run_configs(CONFIGS[:1], extract)
        assert client._sock is not None and not client.degraded
