"""Unit tests for the bound observer fan-out (``repro.engine.fanout``).

The fan-out contract is the heart of the bind-once fast path: callers
hold ``None`` when nobody listens (one pointer test per emission, no
call), the sink itself when exactly one listens (no indirection — so a
C-level ``list.append`` stays C-level), and a closure over a tuple
snapshot otherwise.  Every site hands its sinks one record tuple.
"""

from repro.engine.fanout import bind_fanout


def test_empty_list_binds_to_none():
    assert bind_fanout([]) is None


def test_single_observer_is_bound_directly():
    journal = []
    sink = journal.append
    fan = bind_fanout([sink])
    assert fan is sink
    fan((1.0, "x"))
    assert journal == [(1.0, "x")]


def test_multiple_observers_called_in_registration_order():
    order = []
    observers = [lambda record: order.append(("first", record)),
                 lambda record: order.append(("second", record)),
                 lambda record: order.append(("third", record))]
    fan = bind_fanout(observers)
    assert fan is not None
    fan((2.5, 7))
    assert order == [("first", (2.5, 7)),
                     ("second", (2.5, 7)),
                     ("third", (2.5, 7))]


def test_fanout_snapshots_the_observer_list():
    # Mutating the source list after binding must not change the fan;
    # registration sites rebind explicitly on every attach.
    seen = []
    observers = [lambda record: seen.append("a"),
                 lambda record: seen.append("b")]
    fan = bind_fanout(observers)
    observers.append(lambda record: seen.append("late"))
    fan(())
    assert seen == ["a", "b"]


def test_fanout_forwards_arbitrary_arity():
    # The record is the site's business: every sink gets the very tuple
    # the site built, whatever its length.
    first, second = [], []
    fan = bind_fanout([first.append, second.append])
    record = (0.0, "pkt", 3, None)
    fan(record)
    assert first == second == [record]
    assert first[0] is record and second[0] is record
