"""The distributed worker backend, end to end against real agents.

Every test here drives the full stack — coordinator, wire protocol,
``repro worker serve`` agent processes — and asserts the paper-repro
invariant that justifies distribution at all: **measurements are
bit-identical to a local sweep**, with or without injected fleet
faults.  Agents cost real startup time, so the grid is tiny and the
faulted drills share one module-level baseline.
"""

import functools
import json
import os
import sys
from pathlib import Path

import pytest

import repro
from repro.errors import ConfigurationError
from repro.parallel import ParallelSweepRunner, ResultCache, WorkerBackend
from repro.parallel.backends.coordinator import stop_all
from repro.parallel.backends.worker import _Agent
from repro.resilience import FAULTS_ENV, ResilienceConfig
from repro.scenarios import families

CASES = families.CONJECTURE_CASES[:3]
make_config = functools.partial(families.conjecture_config,
                                duration=5.0, warmup=2.0)
CONFIGS = [make_config(case) for case in CASES]
extract = families.utilization_extract

FAST = dict(backoff_base=0.01, backoff_cap=0.02)


@pytest.fixture(scope="module")
def baseline():
    return ParallelSweepRunner(jobs=1).run_configs(CONFIGS, extract)


@pytest.fixture(autouse=True)
def agent_environment(monkeypatch):
    """Spawned agents re-import repro; make sure they can find it."""
    src = str(Path(repro.__file__).resolve().parents[1])
    existing = os.environ.get("PYTHONPATH", "")
    monkeypatch.setenv("PYTHONPATH",
                       src + (os.pathsep + existing if existing else ""))
    monkeypatch.delenv(FAULTS_ENV, raising=False)


class TestFaultFree:
    def test_worker_sweep_matches_local(self, baseline, tmp_path):
        runner = ParallelSweepRunner(
            jobs=2, backend=WorkerBackend(workers=2, lease_ttl=30.0))
        results = runner.run_configs(CONFIGS, extract,
                                     manifest_dir=tmp_path / "manifests")
        assert results == baseline
        report = runner.last_report
        assert report.ok
        assert report.backend == "worker"
        assert (report.live, report.lease_reclaims) == (len(CONFIGS), 0)
        # Manifests carry the distributed provenance breadcrumbs.
        documents = [json.loads(path.read_text())
                     for path in (tmp_path / "manifests").glob("*.json")]
        assert len(documents) == len(CONFIGS)
        for document in documents:
            assert document["backend"] == "worker"
            assert document["worker"].startswith("agent")

    def test_backend_name_resolves_through_registry(self, baseline):
        runner = ParallelSweepRunner(jobs=1, backend="worker")
        assert runner.run_configs(CONFIGS, extract) == baseline
        assert runner.last_report.backend == "worker"

    def test_per_config_extractors_cross_the_wire(self, baseline):
        runner = ParallelSweepRunner(
            jobs=1, backend=WorkerBackend(workers=1, lease_ttl=30.0))
        results = runner.run_configs(
            CONFIGS, [extract, families.timeouts_extract, extract])
        assert [results[0], results[2]] == [baseline[0], baseline[2]]
        assert set(results[1]) == {"timeouts"}

    def test_lambda_extract_rejected_before_spawning(self):
        runner = ParallelSweepRunner(backend=WorkerBackend(workers=1))
        with pytest.raises(ConfigurationError, match="lambda"):
            runner.run_configs(CONFIGS, lambda result: {})


class TestInjectedFleetFaults:
    def test_worker_kill_recovers_bit_identically(self, baseline, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "worker-kill@1")
        runner = ParallelSweepRunner(
            backend=WorkerBackend(workers=2, lease_ttl=30.0),
            resilience=ResilienceConfig(retries=2, **FAST))
        assert runner.run_configs(CONFIGS, extract) == baseline
        report = runner.last_report
        assert report.ok
        assert report.crashes >= 1
        assert report.lease_reclaims >= 1
        assert report.retries >= 1
        assert report.attempts_by_index.get(1, 0) >= 2

    def test_forced_lease_expiry_reclaims_and_dedupes(self, baseline,
                                                      monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "lease-expire@2")
        runner = ParallelSweepRunner(
            backend=WorkerBackend(workers=2, lease_ttl=3.0),
            resilience=ResilienceConfig(retries=2, **FAST))
        assert runner.run_configs(CONFIGS, extract) == baseline
        report = runner.last_report
        assert report.ok
        assert report.lease_reclaims >= 1
        # The partitioned worker was healthy: nothing crashed, nothing
        # conflicted — its duplicate (if it landed in time) deduped.
        assert report.crashes == 0
        assert report.conflicts == 0

    def test_combined_chaos_matches_fault_free_local(self, baseline,
                                                     monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "worker-kill@0;lease-expire@2")
        runner = ParallelSweepRunner(
            backend=WorkerBackend(workers=2, lease_ttl=3.0),
            resilience=ResilienceConfig(retries=2, **FAST))
        assert runner.run_configs(CONFIGS, extract) == baseline
        report = runner.last_report
        assert report.ok
        assert report.failures == []
        assert report.crashes >= 1 and report.lease_reclaims >= 2

    def test_cache_unreachable_still_completes(self, baseline, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "cache-unreachable@1")
        cache = ResultCache(tmp_path / "cache")
        runner = ParallelSweepRunner(
            backend=WorkerBackend(workers=2, lease_ttl=30.0), cache=cache,
            resilience=ResilienceConfig(retries=1, **FAST))
        with pytest.warns(RuntimeWarning, match="unreachable"):
            assert runner.run_configs(CONFIGS, extract) == baseline
        assert runner.last_report.ok
        # The partitioned point skipped its write; the others landed.
        assert len(cache) == len(CONFIGS) - 1


class TestConfiguration:
    @pytest.mark.parametrize("workers", [0, -1])
    def test_fleet_of_no_agents_is_refused(self, workers):
        with pytest.raises(ConfigurationError,
                           match=f"workers must be at least 1, got {workers}"):
            WorkerBackend(workers=workers)

    @pytest.mark.parametrize("ttl", [0, -1.0])
    def test_non_positive_lease_ttl_is_refused(self, ttl):
        with pytest.raises(ConfigurationError,
                           match="lease_ttl must be positive"):
            WorkerBackend(lease_ttl=ttl)


class _StubStream:
    """An agent's stdin, as far as teardown can tell."""

    def __init__(self, name, log):
        self.name, self.log = name, log

    def write(self, line):
        self.log.append((json.loads(line)["t"], self.name))

    def flush(self):
        pass

    def close(self):
        pass


class _StubProc:
    returncode = 0

    def __init__(self, name, log):
        self.name, self.log = name, log

    def wait(self, timeout=None):
        self.log.append(("wait", self.name))
        return 0


class TestFleetTeardown:
    def test_every_agent_is_told_before_any_is_waited_for(self):
        log = []
        agents = [_Agent(name, -1, _StubStream(name, log), {},
                         proc=_StubProc(name, log))
                  for name in ("agent0", "agent1")]
        stop_all(agents)
        assert log == [("shutdown", "agent0"), ("shutdown", "agent1"),
                       ("wait", "agent0"), ("wait", "agent1")]


class TestDegradation:
    def test_dead_fleet_degrades_to_local(self, baseline):
        backend = WorkerBackend(
            command=[sys.executable, "-c", "raise SystemExit(1)"],
            workers=1, lease_ttl=5.0)
        runner = ParallelSweepRunner(
            backend=backend, resilience=ResilienceConfig(retries=1, **FAST))
        with pytest.warns(RuntimeWarning, match="degrading"):
            results = runner.run_configs(CONFIGS, extract)
        assert results == baseline
        report = runner.last_report
        assert report.ok
        assert report.backend == "worker"
        assert report.degraded_points == len(CONFIGS)

    def test_unspawnable_fleet_degrades_to_local(self, baseline, tmp_path):
        backend = WorkerBackend(
            command=[str(tmp_path / "no-such-binary")], workers=1)
        runner = ParallelSweepRunner(backend=backend)
        with pytest.warns(RuntimeWarning, match="degrading"), \
                pytest.warns(RuntimeWarning, match="could not spawn worker agent"):
            assert runner.run_configs(CONFIGS, extract) == baseline
        assert runner.last_report.degraded_points == len(CONFIGS)
