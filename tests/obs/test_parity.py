"""Tracing must be observation-only: traced == untraced, bit for bit.

The acceptance property of the obs subsystem (the same discipline the
runtime sanitizer established): attaching a tracer — spans, hops and
window storage included — may never perturb a simulation.  Checked over
the paper figures set, shortened to keep the suite fast; the dynamics
(two-way traffic, drops, retransmissions, ACK compression) are all
exercised within these horizons.
"""

import dataclasses

import pytest

from repro.obs import Tracer, build_manifest
from repro.scenarios import paper, run

FIGURES = {
    "fig2": paper.figure2,
    "fig3": paper.figure3,
    "fig4": paper.figure4,
    "fig6": paper.figure6,
    "fig8": paper.figure8,
    "fig9": paper.figure9,
}


def short(config):
    """Shrink a figure config to a fast-but-representative horizon."""
    duration = min(config.duration, 60.0)
    return dataclasses.replace(
        config, duration=duration, warmup=min(config.warmup, duration / 2))


def fingerprint(result):
    marks = {
        "events": result.events_processed,
        "drops": [
            (record.time, record.queue, record.conn_id)
            for record in result.traces.drops.records
        ],
    }
    for port in result.bottleneck_ports:
        marks[port] = list(result.queue_series(port))
    for conn_id, log in sorted(result.traces.cwnds.items()):
        marks[f"cwnd{conn_id}"] = list(log.cwnd)
    return marks


@pytest.mark.parametrize("figure", sorted(FIGURES), ids=sorted(FIGURES))
def test_traced_run_is_bit_identical(figure):
    config = short(FIGURES[figure]())
    baseline = fingerprint(run(config))
    traced = fingerprint(run(config, trace=Tracer(record_spans=True)))
    assert traced == baseline


def test_windowed_tracer_and_manifest_do_not_perturb():
    config = short(paper.figure4())
    baseline = fingerprint(run(config))
    tracer = Tracer(record_spans=True, record_hops=True, window=(10.0, 30.0))
    result = run(config, trace=tracer)
    build_manifest(config, events_processed=result.events_processed,
                   wall_seconds=result.wall_seconds, tracer=tracer)
    observed = fingerprint(result)
    assert observed == baseline
    assert tracer.hops
