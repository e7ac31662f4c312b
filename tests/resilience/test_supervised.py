"""Supervised sweep execution: containment, retries, resume, partial results.

The injected-fault tests assert the headline property end to end: a
sweep that suffers worker death, in-worker exceptions, or hangs past
the timeout still produces measurements **bit-identical** to a
fault-free run.  Spawned workers cost real wall time, so the grid is
small and the faulted tests reuse one module-level baseline.
"""

import functools
import multiprocessing
import os
import time

import pytest

from repro.errors import ReproError, SweepFailureError
from repro.parallel import ParallelSweepRunner
from repro.resilience import FAULTS_ENV, ResilienceConfig, SweepJournal
from repro.scenarios import families

CASES = families.CONJECTURE_CASES[:3]
make_config = functools.partial(families.conjecture_config,
                                duration=5.0, warmup=2.0)
CONFIGS = [make_config(case) for case in CASES]
extract = families.utilization_extract

# Retry quickly in tests; the backoff schedule itself is covered in
# test_policy.py.
FAST_BACKOFF = dict(backoff_base=0.01, backoff_cap=0.02)


@pytest.fixture(scope="module")
def baseline():
    return ParallelSweepRunner(jobs=1).run_configs(CONFIGS, extract)


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    monkeypatch.delenv(FAULTS_ENV, raising=False)


class TestFaultFree:
    def test_supervised_serial_matches_plain(self, baseline):
        runner = ParallelSweepRunner(jobs=1, resilience=True)
        assert runner.run_configs(CONFIGS, extract) == baseline
        report = runner.last_report
        assert report.ok
        assert (report.points, report.live) == (len(CONFIGS), len(CONFIGS))
        assert report.retries == 0
        assert report.attempts_by_index == {}

    def test_supervised_parallel_matches_plain(self, baseline):
        runner = ParallelSweepRunner(
            jobs=2, resilience=ResilienceConfig(timeout=120.0))
        assert runner.run_configs(CONFIGS, extract) == baseline
        assert runner.last_report.ok

    def test_plain_runner_has_no_report(self, baseline):
        runner = ParallelSweepRunner(jobs=1)
        runner.run_configs(CONFIGS, extract)
        assert runner.last_report is None


class TestInjectedFaults:
    def test_serial_retry_recovers_from_raise(self, baseline, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "raise@1")
        runner = ParallelSweepRunner(
            jobs=1, resilience=ResilienceConfig(retries=2, **FAST_BACKOFF))
        assert runner.run_configs(CONFIGS, extract) == baseline
        report = runner.last_report
        assert (report.errors, report.retries) == (1, 1)
        assert report.attempts_by_index == {1: 2}
        assert report.ok

    def test_parallel_survives_worker_kill(self, baseline, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "kill@1")
        runner = ParallelSweepRunner(
            jobs=2,
            resilience=ResilienceConfig(timeout=120.0, retries=2,
                                        **FAST_BACKOFF))
        assert runner.run_configs(CONFIGS, extract) == baseline
        report = runner.last_report
        assert (report.crashes, report.retries) == (1, 1)
        assert report.attempts_by_index == {1: 2}

    def test_parallel_times_out_hung_worker(self, baseline, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "hang@1:600*9")
        runner = ParallelSweepRunner(
            jobs=2,
            resilience=ResilienceConfig(timeout=2.0, retries=0))
        with pytest.raises(SweepFailureError) as excinfo:
            runner.run_configs(CONFIGS, extract)
        (failure,) = excinfo.value.failures
        assert (failure.index, failure.kind) == (1, "timeout")
        assert failure.attempts == 1
        # The sweep still carried the other points to completion.
        results = excinfo.value.results
        assert results[0] == baseline[0] and results[2] == baseline[2]
        assert results[1] is None

    def test_terminal_failure_raises_with_history(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "raise@0*9")
        runner = ParallelSweepRunner(
            jobs=1, resilience=ResilienceConfig(retries=1, **FAST_BACKOFF))
        with pytest.raises(SweepFailureError, match="allow-partial"):
            runner.run_configs(CONFIGS, extract)
        (failure,) = runner.last_report.failures
        assert failure.attempts == 2
        assert [record.outcome for record in failure.history] == ["error",
                                                                  "error"]
        assert "FaultInjectionError" in failure.message

    def test_allow_partial_returns_none_at_failed_index(self, baseline,
                                                        monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "raise@2*9")
        runner = ParallelSweepRunner(
            jobs=1,
            resilience=ResilienceConfig(retries=0, allow_partial=True,
                                        **FAST_BACKOFF))
        results = runner.run_configs(CONFIGS, extract)
        assert results[2] is None
        assert results[:2] == baseline[:2]
        assert not runner.last_report.ok


SIX = [make_config(case) for case in families.CONJECTURE_CASES[:6]]


@pytest.fixture(scope="module")
def baseline_six():
    return ParallelSweepRunner(jobs=1).run_configs(SIX, extract)


def _run_six(policy):
    """A ``jobs=2`` sweep of SIX: (results, report, progress events)."""
    events = []
    runner = ParallelSweepRunner(jobs=2, resilience=policy)
    results = runner.run_configs(SIX, extract, on_progress=events.append)
    return results, runner.last_report, events


def _dying_extract(result):
    os._exit(3)


def _raising_extract(result):
    raise ValueError("extract blew up")


class TestLongLivedWorkers:
    """Workers are spawned once and replaced only when they are lost."""

    def test_two_jobs_means_two_workers(self, baseline_six):
        results, report, events = _run_six(ResilienceConfig(timeout=120.0))
        assert results == baseline_six and report.ok
        assert len({event.worker for event in events}) == 2

    def test_kill_costs_one_worker_and_nobody_elses_attempt(
            self, baseline_six, monkeypatch):
        # Point 0 is slow, so its worker is mid-attempt when point 1's
        # dies and the freed slot can only go to a replacement.
        monkeypatch.setenv(FAULTS_ENV, "kill@1;slow@0:1.0")
        results, report, events = _run_six(
            ResilienceConfig(timeout=120.0, retries=2, **FAST_BACKOFF))
        assert results == baseline_six
        assert (report.crashes, report.retries) == (1, 1)
        assert len({event.worker for event in events}) == 3
        (crashed,) = [position for position, event in enumerate(events)
                      if event.phase == "retry"]
        dead = events[crashed].worker
        assert dead not in {event.worker for event in events[crashed + 1:]}
        finishes = {event.index: (position, event)
                    for position, event in enumerate(events)
                    if event.phase == "finish"}
        assert finishes[1][1].attempt == 2
        assert all(finishes[index][1].attempt == 1
                   for index in (0, 2, 3, 4, 5))
        # The bystander's in-flight point outlived the crash untouched.
        position, bystander = finishes[0]
        assert position > crashed and bystander.worker == events[0].worker

    def test_timeout_kills_only_the_hung_worker(self, baseline_six,
                                                monkeypatch):
        # Point 0 hangs on the first worker; the second is kept busy
        # across the deadline by two slow points, so the hung worker's
        # slot can only be refilled by a freshly spawned replacement.
        monkeypatch.setenv(FAULTS_ENV, "hang@0:600;slow@1:1.6;slow@2:1.6")
        results, report, events = _run_six(
            ResilienceConfig(timeout=3.0, retries=1, **FAST_BACKOFF))
        assert results == baseline_six
        assert (report.timeouts, report.crashes, report.retries) == (1, 0, 1)
        (timed_out,) = [position for position, event in enumerate(events)
                        if event.phase == "retry"]
        hung = events[timed_out].worker
        before = {event.worker for event in events[:timed_out]}
        after = {event.worker for event in events[timed_out + 1:]}
        assert hung not in after
        (survivor,) = before - {hung}
        assert survivor in {event.worker for event in events[timed_out + 1:]
                            if event.phase == "finish"}
        (replacement,) = after - before
        assert {event.index for event in events
                if event.worker == replacement} - {0}

    def test_error_outcome_keeps_the_worker(self, baseline_six, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "raise@1")
        results, report, events = _run_six(
            ResilienceConfig(timeout=120.0, retries=1, **FAST_BACKOFF))
        assert results == baseline_six
        assert (report.errors, report.retries) == (1, 1)
        assert len({event.worker for event in events}) == 2

    def test_spawn_failure_degrades_to_inline(self, baseline, monkeypatch):
        def refuse(self):
            raise OSError(24, "Too many open files")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            refuse)
        runner = ParallelSweepRunner(
            jobs=2, resilience=ResilienceConfig(timeout=120.0))
        with pytest.warns(RuntimeWarning, match="could not spawn"):
            assert runner.run_configs(CONFIGS, extract) == baseline
        assert runner.last_report.ok


class TestUnsupervisedWorkers:
    """``jobs > 1`` without a policy: same workers, first failure fatal."""

    def test_dead_worker_raises_instead_of_hanging(self):
        begin = time.monotonic()
        with pytest.raises(ReproError, match=r"point \d .*crash.*exit code 3"):
            ParallelSweepRunner(jobs=2).run_configs(CONFIGS, _dying_extract)
        assert time.monotonic() - begin < 60.0

    def test_raising_extract_names_the_point(self):
        with pytest.raises(ReproError,
                           match=r"point \d failed on worker repro-worker-\d "
                                 r".*ValueError: extract blew up"):
            ParallelSweepRunner(jobs=2).run_configs(CONFIGS, _raising_extract)


class TestJournalResume:
    def test_resume_recomputes_nothing(self, baseline, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        first = ParallelSweepRunner(
            jobs=1, resilience=ResilienceConfig(journal=journal_path))
        assert first.run_configs(CONFIGS, extract) == baseline
        assert first.last_report.live == len(CONFIGS)

        resumed = ParallelSweepRunner(
            jobs=1, resilience=ResilienceConfig(journal=journal_path))
        assert resumed.run_configs(CONFIGS, extract) == baseline
        report = resumed.last_report
        assert (report.journal_skips, report.live) == (len(CONFIGS), 0)

    def test_partial_journal_resumes_only_missing_points(self, baseline,
                                                         tmp_path,
                                                         monkeypatch):
        journal_path = tmp_path / "journal.jsonl"
        monkeypatch.setenv(FAULTS_ENV, "raise@1*9")
        interrupted = ParallelSweepRunner(
            jobs=1,
            resilience=ResilienceConfig(retries=0, allow_partial=True,
                                        journal=journal_path,
                                        **FAST_BACKOFF))
        interrupted.run_configs(CONFIGS, extract)

        monkeypatch.delenv(FAULTS_ENV)
        resumed = ParallelSweepRunner(
            jobs=1, resilience=ResilienceConfig(journal=journal_path))
        assert resumed.run_configs(CONFIGS, extract) == baseline
        report = resumed.last_report
        assert (report.journal_skips, report.live) == (2, 1)

    def test_caller_owned_journal_left_open(self, baseline, tmp_path):
        with SweepJournal(tmp_path / "journal.jsonl") as journal:
            runner = ParallelSweepRunner(
                jobs=1, resilience=ResilienceConfig(journal=journal))
            runner.run_configs(CONFIGS, extract)
            # Still usable: the runner must not have closed it.
            assert journal.recorded == len(CONFIGS)
            assert len(journal.load()) == len(CONFIGS)


class TestProgress:
    def test_phases_cover_start_retry_finish(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "raise@0")
        events = []
        runner = ParallelSweepRunner(
            jobs=1, resilience=ResilienceConfig(retries=1, **FAST_BACKOFF))
        runner.run_configs(CONFIGS, extract,
                           on_progress=lambda p: events.append(
                               (p.index, p.phase, p.attempt)))
        assert (0, "retry", 1) in events
        assert (0, "start", 2) in events
        assert (0, "finish", 2) in events

    def test_fail_phase_reported(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "raise@0*9")
        events = []
        runner = ParallelSweepRunner(
            jobs=1,
            resilience=ResilienceConfig(retries=0, allow_partial=True,
                                        **FAST_BACKOFF))
        runner.run_configs(CONFIGS, extract,
                           on_progress=lambda p: events.append(
                               (p.index, p.phase)))
        assert (0, "fail") in events
