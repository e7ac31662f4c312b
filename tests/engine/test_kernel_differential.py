"""Differential test: the live engine against the frozen baseline kernel.

``benchmarks/baseline_kernel.py`` is an import-free snapshot of the
engine's fast path, kept for the relative perf gate.  That also makes
it a second implementation: hypothesis generates programs of schedule /
post / cancel / ``run(until=, max_events=)`` / ``stop()`` operations,
both kernels execute the same program, and after every ``run`` they
must agree on fire order, clock, ``events_processed`` and
``cancelled_pending``.  The frozen kernel predates ``post``, so there a
post is a ``schedule`` at ``NORMAL``: the handle-free entry must fire
exactly where a handle would have.  The live side runs under each
(strict, traced) combination, so both drain loops and both
instrumented-loop branches are held to the frozen kernel's behaviour;
traced, every dispatch must carry the label its entry was made with.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.baseline_kernel import BaselineEventPriority, BaselineSimulator
from repro.engine import EventPriority, Simulator


class _Driver:
    """Executes one program against one kernel and records what fired.

    An operation, and the action an event performs when it fires, is
    ``(method name, *arguments)`` of this class; ``()`` is no action.
    """

    def __init__(self, sim, priority_cls, post):
        self.sim = sim
        self.priority_cls = priority_cls
        self._post = post
        self.events = []  # handles, the targets of `cancel`
        self.labels = []  # label of every entry made, by identity
        self.fired = []

    def _firing(self, action):
        """``(label, callback)`` for one new calendar entry."""
        ident = len(self.labels)
        self.labels.append(f"entry{ident}")

        def fire():
            self.fired.append((ident, self.sim.now))
            if action:
                getattr(self, action[0])(*action[1:])

        return self.labels[ident], fire

    def schedule(self, delay, priority, action):
        label, fire = self._firing(action)
        self.events.append(self.sim.schedule(
            delay, fire, priority=self.priority_cls(priority), label=label))

    def post(self, delay, action):
        label, fire = self._firing(action)
        self._post(delay, fire, label=label)

    def cancel(self, target):
        if self.events:
            self.events[target % len(self.events)].cancel()

    def burst(self, count, delay, keep_every):
        """Timer churn deep enough to cross the auto-compaction threshold."""
        for index in range(count):
            self.schedule(delay, 1, ())
            if index % keep_every:
                self.events[-1].cancel()

    def stop(self):
        self.sim.stop()

    def run(self, until, max_events):
        self.sim.run(until=until, max_events=max_events)

    def state(self):
        return (self.fired, self.sim.now, self.sim.events_processed,
                self.sim._cancelled_pending)


# Repeated round values force same-timestamp ties, where priority and
# insertion order decide.
delays = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)
priorities = st.sampled_from([0, 1, 1, 1, 2])
targets = st.integers(min_value=0, max_value=10_000)
actions = st.one_of(
    st.just(()),
    st.tuples(st.just("schedule"), delays, priorities, st.just(())),
    st.tuples(st.just("post"), delays, st.just(())),
    st.tuples(st.just("cancel"), targets),
    st.just(("stop",)),
)
operations = st.one_of(
    st.tuples(st.just("schedule"), delays, priorities, actions),
    st.tuples(st.just("post"), delays, actions),
    st.tuples(st.just("cancel"), targets),
    st.tuples(st.just("burst"), st.integers(min_value=1, max_value=300),
              delays, st.integers(min_value=1, max_value=4)),
    # A run takes `until` or `max_events`, never both: when the budget
    # runs out first the frozen kernel still jumps the clock to `until`,
    # past events that are still pending — a defect this test found and
    # the live engine fixed (tests/engine/test_simulator.py pins it).
    st.tuples(st.just("run"),
              st.none() | st.floats(min_value=0.0, max_value=30.0,
                                    allow_nan=False),
              st.none()),
    st.tuples(st.just("run"), st.none(),
              st.integers(min_value=0, max_value=400)),
)
programs = st.lists(operations, max_size=40)


@pytest.mark.parametrize("strict", [False, True], ids=["bare", "strict"])
@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@given(program=programs)
@settings(max_examples=200, deadline=None)
def test_live_kernel_matches_frozen_baseline(strict, traced, program):
    live_sim, frozen_sim = Simulator(strict=strict), BaselineSimulator()
    live = _Driver(live_sim, EventPriority, live_sim.post)
    frozen = _Driver(frozen_sim, BaselineEventPriority, frozen_sim.schedule)
    dispatched = []
    if traced:
        live.sim.set_tracer(SimpleNamespace(
            dispatch=lambda *record: dispatched.append(record)))
    # The closing unbounded run drains whatever the program left behind.
    for op in [*program, ("run", None, None)]:
        for side in (live, frozen):
            getattr(side, op[0])(*op[1:])
        if op[0] == "run":
            assert live.state() == frozen.state()
    if traced:
        assert len(dispatched) == live.sim.events_processed
        assert ([(record[0], record[2]) for record in dispatched]
                == [(now, live.labels[ident]) for ident, now in live.fired])
