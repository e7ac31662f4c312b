"""Pinned observables of the two pluggable policies.

Everything here was recorded while algorithms and queue disciplines
still had a registry each and the builder left plain drop-tail to
``OutputPort``'s own queue: the ``repro algorithms`` / ``repro
disciplines`` listings, every bottleneck queue the paper scenarios
build, and the config hash of a discipline chosen directly through
:class:`~repro.scenarios.QueueSpec` (not through ``substitute``).
"""

import pytest

from repro.cli import main
from repro.net import DropTailQueue
from repro.parallel import config_hash
from repro.scenarios import FlowSpec, QueueSpec, ScenarioConfig, build, paper

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
    assert main([verb]) == 0
    assert capsys.readouterr().out == stdout


@pytest.mark.parametrize("make,ports", [
    (paper.figure4, ["sw1->sw2", "sw2->sw1"]),
    (paper.four_switch, ["sw1->sw2", "sw2->sw1", "sw2->sw3", "sw3->sw2",
                         "sw3->sw4", "sw4->sw3"]),
], ids=["figure4", "four_switch"])
def test_bottleneck_queues(make, ports):
    built = build(make())
    assert built.bottleneck_ports == ports
    for port in ports:
        queue = built.net.port(*port.split("->")).queue
        assert type(queue) is DropTailQueue
        assert (queue.name, queue.capacity) == (f"{port}:queue", 20)
        assert queue.strict is built.sim.strict


def _two_way(queue):
    return ScenarioConfig(
        name="pinned-two-way",
        flows=(FlowSpec(src="host1", dst="host2"),
               FlowSpec(src="host2", dst="host1")),
        duration=60.0,
        warmup=20.0,
        queue=queue,
    )


@pytest.mark.parametrize("queue,digest", [
    (QueueSpec("red", {"max_p": 0.05, "min_th": 5.0}),
     "2b43bc6a854a74a3ff869fff521ba0fbdfdb115c3f049452d1666737dbbf1994"),
    (QueueSpec("randomdrop"),
     "d2c9c4a829d351b95305a53108fb24921c2f7cabe5032791eae681ae64adf493"),
], ids=["red", "randomdrop"])
def test_queue_spec_config_hash(queue, digest):
    assert config_hash(_two_way(queue)) == digest
