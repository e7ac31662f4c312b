# repro-lint-module: repro.net.demo
"""Positive fixture: infinite sentinel delays posted to the heap (RPR006)."""
import math


def park(sim, handler, packet):
    sim.post(float("inf"), handler, packet)
    sim.post(delay=math.inf, callback=handler)
