"""The one supervision loop, under both transports and under none.

Three layers.  The **differential** drills run the same faulted slice
once on ``jobs=2`` pipe workers and once on a two-agent fleet and
demand the same measurements, the same per-point progress phases and
the same report counters — the loop is one function, so a fault kind
cannot behave differently by transport.  The **scripted** tests drive
that loop against an in-memory transport on a fake clock (no process,
no sleep), one case per branch.  The **failure** tests pin what an
unsupervised sweep raises, whatever ``jobs`` is.
"""

import math
import os
import traceback

import pytest

from repro.errors import BackendUnavailable, ReproError
from repro.parallel import ParallelSweepRunner, WorkerBackend
from repro.parallel.backends import coordinator
from repro.parallel.backends.base import BackendRequest
from repro.parallel.backends.coordinator import Crew, Transport, coordinate
from repro.parallel.backends.worker import _Agent
from repro.resilience import FAULTS_ENV, ResilienceConfig, parse_faults
from repro.resilience.report import ResilienceReport

# The three-point slice, its fault-free baseline and the environment
# spawned agents need are the fleet tests' own.
from .test_worker_backend import (  # noqa: F401 -- fixtures are used by name
    CONFIGS,
    agent_environment,
    baseline,
    extract,
)

COUNTERS = ("retries", "crashes", "timeouts", "errors", "lease_reclaims",
            "duplicate_results")


# ----------------------------------------------------------------------
# Differential: pipe workers vs. agents
# ----------------------------------------------------------------------
RETRIED = ["start:1", "retry:1", "start:2", "finish:2"]
#: spec, policy extras, point 1's phases, the counters that are not zero.
DRILLS = [
    ("raise@1", {}, RETRIED, dict(errors=1, retries=1)),
    ("kill@1", {}, RETRIED, dict(crashes=1, retries=1, lease_reclaims=1)),
    ("worker-kill@1", {}, RETRIED,
     dict(crashes=1, retries=1, lease_reclaims=1)),
    ("hang@1:600", dict(timeout=2.0), RETRIED,
     dict(timeouts=1, retries=1, lease_reclaims=1)),
    # A re-leased copy keeps its attempt number, so both copies of point
    # 1 sleep 4 s.  The other worker reaches the requeued copy after
    # point 0 and point 2's 2 s, about 2 s before the first copy
    # reports, and that report ends the sweep about 2 s before the
    # second copy could: its result never arrives, however loaded the
    # host.  (With both copies started a few ms apart, they could report
    # in one wait and count a duplicate.)
    ("lease-expire@1;slow@1:4.0;slow@2:2.0", {},
     ["start:1", "start:1", "finish:1"], dict(lease_reclaims=1)),
]


def _drill(backend, policy):
    events = []
    runner = ParallelSweepRunner(jobs=2, backend=backend, resilience=policy)
    results = runner.run_configs(CONFIGS, extract, on_progress=events.append)
    phases = {index: [f"{event.phase}:{event.attempt}" for event in events
                      if event.index == index]
              for index in range(len(CONFIGS))}
    report = runner.last_report
    return results, phases, {name: getattr(report, name) for name in COUNTERS}


@pytest.mark.usefixtures("fast_backoff")
@pytest.mark.parametrize("spec, extras, faulted_phases, nonzero", DRILLS,
                         ids=[drill[0] for drill in DRILLS])
def test_a_fault_means_the_same_on_either_transport(
        spec, extras, faulted_phases, nonzero, baseline, monkeypatch):
    monkeypatch.setenv(FAULTS_ENV, spec)
    policy = ResilienceConfig(retries=2, **extras)
    local = _drill(None, policy)
    fleet = _drill(WorkerBackend(workers=2, lease_ttl=30.0), policy)
    assert local == fleet
    results, phases, counters = local
    assert results == baseline
    assert phases == {0: ["start:1", "finish:1"], 1: faulted_phases,
                      2: ["start:1", "finish:1"]}
    assert counters == {**dict.fromkeys(COUNTERS, 0), **nonzero}


# ----------------------------------------------------------------------
# Scripted: the loop against an in-memory transport on a fake clock
# ----------------------------------------------------------------------
def ok(value):
    return ({"value": value}, 0.5, 7)


class Scripted(Transport):
    """Answers each task from a script: ``on_send(worker, index,
    attempt)`` yields ``(delay, kind, body)``; ``hello`` makes it ready."""

    def __init__(self, stage, name, on_send, hello=None):
        self.stage, self.name, self.on_send = stage, name, on_send
        self.waitable = self
        self.ready = hello is None
        self.due = ([] if hello is None
                    else [(stage.now + hello, ("hello", "", None))])
        self.sent, self.stops = [], []

    def send(self, lease_id, task):
        index, attempt = task[:2]
        self.sent.append((self.stage.now, index, attempt))
        self.due += [(self.stage.now + delay, (kind, lease_id, body))
                     for delay, kind, body
                     in self.on_send(self.name, index, attempt)]

    def messages(self):
        arrived = [message for due, message in self.due
                   if due <= self.stage.now]
        self.due = [item for item in self.due if item[0] > self.stage.now]
        self.ready = self.ready or ("hello", "", None) in arrived
        return [message for message in arrived if message[0] != "hello"]

    def dismiss(self):
        self.stops.append("dismiss")

    def reap(self, force=False):
        self.stops.append("kill" if force else "reap")
        self.due = []


class Stage:
    """A fake clock, a fake ``connection.wait`` and a recording ledger
    (the six methods a coordinator may call)."""

    def __init__(self, monkeypatch, points, on_send, *, hello=None,
                 faults="", policy=None):
        self.now = 0.0
        self.waits = 0
        self.cast: list[Scripted] = []
        self.on_send, self.hello = on_send, hello
        self.completed, self.failures, self.conflicts = {}, [], []
        self.report = ResilienceReport(points=points)
        self.request = BackendRequest(
            pending=list(range(points)), configs=[None] * points,
            extracts=[None] * points, jobs=2, ledger=self,
            policy=policy or ResilienceConfig(),
            fault_plan=parse_faults(faults))
        monkeypatch.setattr(coordinator, "monotonic", lambda: self.now)
        monkeypatch.setattr(coordinator.connection, "wait", self._wait)

    def spawn(self):
        hello = self.hello(len(self.cast)) if self.hello else None
        self.cast.append(Scripted(self, f"w{len(self.cast)}", self.on_send,
                                  hello))
        return self.cast[-1]

    def started(self, index, attempt, worker):
        pass

    def settle(self, index, measurements, source, worker, *, wall_seconds,
               events, attempts):
        assert source == "live" and index not in self.completed, (
            "a point completed twice")
        self.completed[index] = (measurements, worker, attempts)

    def attempt_failed(self, index, attempt, outcome, wall_seconds, detail,
                       worker):
        self.failures.append((index, attempt, outcome, worker))
        return 0.25 if attempt < 3 else None

    def duplicate(self, index):
        self.report.duplicate_results += 1

    def conflict(self, *args):
        self.conflicts.append(args)

    def reclaimed(self, leases):
        self.report.lease_reclaims += leases

    def _wait(self, waitables, timeout=None):
        self.waits += 1
        assert self.waits < 100, "the coordinator is spinning"
        arrivals = [due for worker in waitables for due, _ in worker.due]
        wake = min(min(arrivals, default=math.inf),
                   math.inf if timeout is None else self.now + timeout)
        assert wake < math.inf, "the coordinator would block forever"
        self.now = max(self.now, wake)
        return [worker for worker in waitables
                if any(due <= self.now for due, _ in worker.due)]


def always(delay, value=1.0):
    return lambda worker, index, attempt: [(delay, "ok", ok(value))]


def _broken_pipe(lease_id, task):
    raise BrokenPipeError("gone")


class TestScriptedTransport:
    def test_points_complete_and_everyone_is_told_then_reaped(
            self, monkeypatch):
        stage = Stage(monkeypatch, 3, always(1.0))
        coordinate(stage.request, Crew(stage.spawn, slots=2))
        assert sorted(stage.completed) == [0, 1, 2]
        assert [worker.stops for worker in stage.cast] == [
            ["dismiss", "reap"]] * 2
        assert stage.failures == [] and stage.report.lease_reclaims == 0

    def test_a_worker_is_sent_nothing_until_it_is_ready(self, monkeypatch):
        stage = Stage(monkeypatch, 1, always(1.0), hello=lambda n: 2.0)
        coordinate(stage.request, Crew(stage.spawn, slots=1,
                                       hello_timeout=5.0))
        assert stage.cast[0].sent == [(2.0, 0, 1)]
        assert stage.completed[0][1:] == ("w0", 1)

    def test_a_worker_that_never_says_hello_is_replaced(self, monkeypatch):
        stage = Stage(monkeypatch, 1, always(1.0),
                      hello=lambda n: 60.0 if n == 0 else 0.5)
        with pytest.warns(RuntimeWarning, match="w0 never said hello"):
            coordinate(stage.request, Crew(stage.spawn, slots=1,
                                           hello_timeout=5.0))
        assert stage.cast[0].stops == ["kill"] and stage.cast[0].sent == []
        assert stage.cast[1].sent == [(5.5, 0, 1)]
        assert stage.failures == []  # nobody's attempt: no point was held

    def test_keep_alives_hold_a_lease_past_its_ttl(self, monkeypatch):
        beats = [(0.8, "alive", None), (1.6, "alive", None),
                 (2.4, "ok", ok(1.0))]
        stage = Stage(monkeypatch, 1, lambda *task: beats)
        coordinate(stage.request, Crew(stage.spawn, slots=1, ttl=1.0))
        assert stage.completed[0][2] == 1 and len(stage.cast) == 1
        assert stage.report.lease_reclaims == 0

    def test_silence_past_the_ttl_costs_the_worker_and_one_attempt(
            self, monkeypatch):
        stage = Stage(monkeypatch, 1,
                      lambda worker, index, attempt:
                      [] if worker == "w0" else [(1.0, "ok", ok(1.0))])
        coordinate(stage.request, Crew(stage.spawn, slots=1, ttl=1.0))
        assert stage.failures == [(0, 1, "crash", "w0")]
        assert stage.cast[0].stops == ["kill"]
        # Silent until 1.0, then a backoff of 0.25.
        assert stage.cast[1].sent == [(1.25, 0, 2)]
        assert stage.completed[0][1:] == ("w1", 2)
        assert stage.report.lease_reclaims == 1

    def test_point_budget_is_not_extended_by_keep_alives(self, monkeypatch):
        stage = Stage(monkeypatch, 1,
                      lambda worker, index, attempt:
                      [(0.5 * n, "alive", None) for n in range(1, 9)]
                      if attempt == 1 else [(0.1, "ok", ok(1.0))],
                      policy=ResilienceConfig(timeout=2.0))
        coordinate(stage.request, Crew(stage.spawn, slots=1, ttl=1.0))
        assert stage.failures == [(0, 1, "timeout", "w0")]
        assert stage.completed[0][2] == 2

    def test_eof_mid_attempt_is_a_crash_and_a_retry(self, monkeypatch):
        stage = Stage(monkeypatch, 2,
                      lambda worker, index, attempt:
                      [(0.5, "dead", "EOF, exit code 137")]
                      if (index, attempt) == (1, 1)
                      else [(1.0, "ok", ok(index))])
        coordinate(stage.request, Crew(stage.spawn, slots=2))
        assert stage.failures == [(1, 1, "crash", "w1")]
        assert stage.completed[1][0] == {"value": 1}
        assert stage.completed[1][2] == 2
        assert stage.cast[1].stops == ["kill"]

    @pytest.mark.parametrize("stale, duplicates, conflicts",
                             [(1.0, 1, 0), (2.0, 0, 1)],
                             ids=["equal", "unequal"])
    def test_a_stale_duplicate_dedupes_or_conflicts(
            self, monkeypatch, stale, duplicates, conflicts):
        """Point 0's lease is force-expired; its copy on w1 lands first
        (t=2), the partitioned w0 reports at t=3, and point 2 keeps the
        sweep alive until then."""
        def script(worker, index, attempt):
            if index == 0:
                return [(3.0, "ok", ok(stale))] if worker == "w0" else [
                    (1.0, "ok", ok(1.0))]
            return [(1.0 if index == 1 else 10.0, "ok", ok(1.0))]

        stage = Stage(monkeypatch, 3, script, faults="lease-expire@0")
        coordinate(stage.request, Crew(stage.spawn, slots=3))
        assert stage.completed[0] == ({"value": 1.0}, "w1", 1)
        assert stage.report.duplicate_results == duplicates
        assert len(stage.conflicts) == conflicts
        assert stage.report.lease_reclaims == 1 and stage.failures == []

    def test_an_error_for_a_reclaimed_lease_is_stale(self, monkeypatch):
        def script(worker, index, attempt):
            if index == 0 and worker == "w0":
                return [(3.0, "error", "ValueError: late")]
            return [(1.0 if index < 2 else 10.0, "ok", ok(1.0))]

        stage = Stage(monkeypatch, 3, script, faults="lease-expire@0")
        coordinate(stage.request, Crew(stage.spawn, slots=3))
        assert stage.failures == [] and sorted(stage.completed) == [0, 1, 2]

    def test_a_worker_that_dies_idle_costs_no_attempt(self, monkeypatch):
        stage = Stage(monkeypatch, 1, always(1.0))
        spawn = stage.spawn

        def spawn_one_broken():
            worker = spawn()
            if worker.name == "w0":
                worker.send = _broken_pipe
            return worker

        coordinate(stage.request, Crew(spawn_one_broken, slots=1))
        assert stage.failures == [] and stage.completed[0][1:] == ("w1", 1)
        assert stage.cast[0].stops == ["kill"]

    def test_a_fleet_that_cannot_be_staffed_is_unavailable(self, monkeypatch):
        stage = Stage(monkeypatch, 2, always(1.0))
        with pytest.raises(BackendUnavailable, match="nobody home"):
            coordinate(stage.request, Crew(lambda: None, slots=2,
                                           unavailable="nobody home"))

    def test_a_result_for_an_unknown_lease_is_dropped(self, monkeypatch):
        stage = Stage(monkeypatch, 1,
                      lambda *task: [(1.0, "ok", ok(1.0))])
        worker = stage.spawn()
        worker.due.append((0.5, ("ok", "L9-p9-a9", ok(9.0))))
        with pytest.warns(RuntimeWarning, match="unknown lease 'L9-p9-a9'"):
            coordinate(stage.request, Crew(lambda: worker, slots=1))
        assert stage.completed[0][0] == {"value": 1.0}


# ----------------------------------------------------------------------
# The agent transport's line splitter
# ----------------------------------------------------------------------
class _Proc:
    returncode = -9
    killed = 0

    def kill(self):
        self.killed += 1

    def wait(self, timeout=None):
        return self.returncode


class _Sink:
    def close(self):
        pass


class TestAgentFraming:
    @pytest.fixture
    def agent(self):
        read_end, write_end = os.pipe()
        agent = _Agent("agent0", read_end, _Sink(), {}, proc=_Proc())
        yield agent, write_end
        os.close(read_end)
        os.close(write_end)

    def test_a_torn_line_is_assembled_across_reads(self, agent):
        agent, write_end = agent
        os.write(write_end, b'{"t":"heartbeat","lease_')
        assert agent.messages() == []
        os.write(write_end, b'id":"L1-p0-a1"}\n{"t":"error","lease_id":'
                            b'"L1-p0-a1","detail":"boom"}\n')
        assert agent.messages() == [("alive", "L1-p0-a1", None),
                                    ("error", "L1-p0-a1", "boom")]
        assert agent.proc.killed == 0

    def test_hello_makes_it_ready_and_names_it(self, agent):
        agent, write_end = agent
        os.write(write_end, b'{"t":"hello","proto":1,"host":"box","pid":42}\n')
        assert not agent.ready
        assert agent.messages() == [] and agent.ready
        assert agent.name == "agent0@box:42"

    @pytest.mark.parametrize("damage, why", [
        (b"\xff\xfe\x00garbage\n", "not JSON"),
        (b"\n", "blank"),
        (b'{"t":"hello","proto":0}\n', "version mismatch"),
        (b'{"t":"result","lease_id":"L1","wall_seconds":[]}\n', "float()"),
    ], ids=["undecodable", "blank", "version", "mistyped"])
    def test_damage_kills_the_agent(self, agent, damage, why):
        agent, write_end = agent
        os.write(write_end, b'{"t":"heartbeat","lease_id":"L1"}\n' + damage)
        first, (kind, _, detail) = agent.messages()
        assert first == ("alive", "L1", None)  # what came before still counts
        assert kind == "dead" and "protocol damage" in detail and why in detail
        assert detail.endswith("exit code -9") and agent.proc.killed == 1

    def test_an_endless_line_is_damage_not_memory(self, agent, monkeypatch):
        agent, write_end = agent
        monkeypatch.setattr("repro.parallel.backends.worker.MAX_LINE_BYTES",
                            1000)
        os.write(write_end, b"x" * 1500)
        ((kind, _, detail),) = agent.messages()
        assert kind == "dead" and "exceeds 1000 bytes" in detail

    def test_eof_is_death(self):
        read_end, write_end = os.pipe()
        os.close(write_end)
        try:
            assert _Agent("agent1", read_end, _Sink(), {}).messages() == [
                ("dead", "", "EOF on the agent transport")]
        finally:
            os.close(read_end)


# ----------------------------------------------------------------------
# One failure behaviour, one fault vocabulary
# ----------------------------------------------------------------------
def _raising_extract(result):
    raise ValueError("extract blew up")


class TestUnsupervisedFailure:
    def test_jobs1_raises_the_same_error_jobs2_does(self):
        with pytest.raises(ReproError,
                           match=r"sweep point 0 failed on worker MainProcess "
                                 r"\(error\): ValueError: extract blew up"
                           ) as excinfo:
            ParallelSweepRunner(jobs=1).run_configs(CONFIGS, _raising_extract)
        # Ran in-process: the user's own exception is chained, so the
        # traceback still ends in their extractor.
        cause = excinfo.value.__cause__
        assert isinstance(cause, ValueError)
        assert traceback.extract_tb(cause.__traceback__)[-1].name == (
            "_raising_extract")

    def test_in_worker_faults_apply_on_jobs1(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "raise@1")
        with pytest.raises(ReproError,
                           match=r"point 1 .*FaultInjectionError"):
            ParallelSweepRunner(jobs=1).run_configs(CONFIGS, extract)
