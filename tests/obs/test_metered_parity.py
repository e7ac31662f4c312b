"""Metering must be observation-only: metered == bare, bit for bit.

The same acceptance property the tracer established, extended to the
metrics registry: the post-run harvest reads the finished run and may
never perturb it.  ``repro parity`` meters every case, so this file is
where a *bare* run is still compared with a metered one.  Checked over
shortened paper figures covering every sender family the parity suite
distinguishes (tahoe two-way, fixed-window phase locking, reno).
"""

import dataclasses
import json

import pytest

from repro.experiments.parity import SMOKE_CASE_NAMES, parity_cases
from repro.scenarios import run


def short(config):
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
    for conn in result.connections:
        marks[f"sender{conn.conn_id}"] = (
            conn.sender.packets_sent, conn.sender.snd_una,
            conn.sender.retransmits)
    return marks


CASES = {case.name: case for case in parity_cases(list(SMOKE_CASE_NAMES))}


@pytest.mark.parametrize("name", sorted(CASES), ids=sorted(CASES))
def test_metered_run_is_bit_identical(name):
    config = short(CASES[name].build())
    baseline = fingerprint(run(config))
    metered = fingerprint(run(config, metrics=True))
    assert metered == baseline


def test_metered_snapshots_identical_across_reruns():
    config = short(CASES["figure2"].build())

    def stable_rows(result):
        return json.dumps(
            [row for row in result.metrics["metrics"]
             if row["name"] != "repro_run_wall_seconds"],
            sort_keys=True)

    assert stable_rows(run(config, metrics=True)) == \
        stable_rows(run(config, metrics=True))
