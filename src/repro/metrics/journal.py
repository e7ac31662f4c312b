"""Record raw, derive on read.

A monitor's observers are C-level sinks — ``list.append`` or
``array('d').extend`` of a *journal* — so a watched site enters no
Python frame per observation (:mod:`repro.engine.fanout`).  What the
monitor publishes is a :class:`Derived` attribute: reading or assigning
it first folds whatever the journal holds into the published objects,
by the same expressions in the same order an eager handler would have
run them, and empties the journal.  A read in the middle of a run
followed by more simulation is therefore legal, and between reads the
attribute is the plain list or
:class:`~repro.metrics.timeseries.StepSeries` it always was.
"""

from __future__ import annotations

from typing import Any

__all__ = ["Derived"]


class Derived:
    """An attribute folded up to date from the owner's journal on every
    read and before every assignment (``owner._derive()``)."""

    def __set_name__(self, owner: type, name: str) -> None:
        self._name = name

    def __get__(self, obj: Any, objtype: type | None = None) -> Any:
        if obj is None:
            return self
        obj._derive()
        return obj.__dict__[self._name]

    def __set__(self, obj: Any, value: Any) -> None:
        obj._derive()
        obj.__dict__[self._name] = value
