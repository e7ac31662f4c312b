# repro-lint-module: repro.net.demo
"""Negative fixture: finite posts; `inf` as a packet's argument is fine."""
import math


def forward(sim, handler, packet, propagation: float):
    sim.post(propagation, handler, packet, math.inf)
