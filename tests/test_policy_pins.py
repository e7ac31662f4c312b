"""Pinned observables of the two pluggable policies.

Both were recorded while algorithms and queue disciplines still had a
registry each and the builder left plain drop-tail to ``OutputPort``'s
own queue: the ``repro algorithms`` / ``repro disciplines`` listings,
and every bottleneck queue the paper scenarios build.  Neither reaches a
run's numbers, so no parity fingerprint or ``EXPERIMENTS.md`` row sees
them move.  The config hash of a discipline chosen through
:class:`~repro.scenarios.QueueSpec` is pinned where every config hash
is, in ``tests/parallel/test_identity.py`` and
``tests/test_cli_commands.py::TestCounterfactualFlags``.
"""

import pytest

from repro.cli import main
from repro.engine.sanitize import SANITIZE_ENV
from repro.net import DropTailQueue
from repro.scenarios import build, paper

ALGORITHMS_STDOUT = """\
aimd          AimdControl
fixed         FixedWindowControl
paced         PacedControl
reno          RenoControl
tahoe         TahoeControl
"""

DISCIPLINES_STDOUT = """\
droptail      DropTailQueue
randomdrop    RandomDropQueue
red           RedQueue
"""


@pytest.mark.parametrize("verb,stdout", [
    ("algorithms", ALGORITHMS_STDOUT),
    ("disciplines", DISCIPLINES_STDOUT),
])
def test_listing_stdout(verb, stdout, capsys):
    """The one check on the listings' layout: a wider name column fails
    here alone."""
    assert main([verb]) == 0
    assert capsys.readouterr().out == stdout


@pytest.mark.parametrize("make,ports", [
    (paper.figure4, ["sw1->sw2", "sw2->sw1"]),
    (paper.four_switch, ["sw1->sw2", "sw2->sw1", "sw2->sw3", "sw3->sw2",
                         "sw3->sw4", "sw4->sw3"]),
], ids=["figure4", "four_switch"])
def test_bottleneck_queues(make, ports, monkeypatch):
    """The one check on what the builder hands ``OutputPort``: a renamed
    queue, or one built non-strict under a strict simulator, fails here
    alone (neither moves a single packet)."""
    monkeypatch.setenv(SANITIZE_ENV, "1")
    built = build(make())
    assert built.bottleneck_ports == ports
    for port in ports:
        queue = built.net.port(*port.split("->")).queue
        assert type(queue) is DropTailQueue
        assert (queue.name, queue.capacity) == (f"{port}:queue", 20)
        assert queue.strict is built.sim.strict is True
