# repro-lint-module: repro.net.demo
"""Negative fixture: posts from sorted iteration, dict views that never post."""


def flush(links, sim):
    for name in sorted(links):
        sim.post(links[name].propagation, links[name].poke)
    for link in links.values():  # no post in the body: allowed
        link.counter += 1
