# repro-lint-module: repro.net.demo
"""Positive fixture: per-packet work posted from dict-view loops (RPR004)."""


def flush(links, sim):
    for link in links.values():
        sim.post(link.propagation, link.poke, label="arrive")
    for name, link in links.items():
        link.sim.post(0.0, link.poke, name)
