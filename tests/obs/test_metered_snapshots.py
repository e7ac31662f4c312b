"""Metered snapshots of figures 2 and 4, pinned row for row.

``tests/golden/metered_snapshots.json`` holds the full
``metrics["metrics"]`` rows of a metered ``paper.figure2()`` and
``paper.figure4()`` run, less the wall-clock ``repro_run_wall_seconds``
gauge.  It was recorded by running this module as a script
(``PYTHONPATH=src python -m tests.obs.test_metered_snapshots``) while the
meter still probed RTT samples live, so it is the proof that harvesting
everything from the finished run changed no metric name, label, help
string, bucket layout or value.  Floats survive the JSON round trip
exactly, and the comparison is ``==``.

The same recorded rows also pin the Prometheus exposition byte for
byte (SHA-256 of ``prometheus_text``), and stand in for runtime checks
on what the meter writes: every name and label key is a lowercase
Prometheus identifier, and every bucket layout is strictly increasing.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from repro.obs.export import prometheus_text
from repro.scenarios import paper, run

GOLDEN = Path(__file__).parents[1] / "golden" / "metered_snapshots.json"

CASES = {"figure2": paper.figure2, "figure4": paper.figure4}

#: SHA-256 of ``prometheus_text`` over each case's recorded rows.
EXPOSITION_SHA256 = {
    "figure2": "36154fa29f3b64997de73fb8a635f596229e27db422966d73da6d700054a13c7",
    "figure4": "51205f836be3b6b18878d2c947c2180ab123568c2584b4a42fbfac9687c09117",
}

IDENTIFIER = re.compile(r"[a-z][a-z0-9_]*\Z")


def recorded_rows(name: str) -> list:
    return json.loads(GOLDEN.read_text())[name]


def metered_rows(name: str) -> list:
    rows = run(CASES[name](), metrics=True).metrics["metrics"]
    return json.loads(json.dumps(
        [row for row in rows if row["name"] != "repro_run_wall_seconds"]))


@pytest.mark.parametrize("name", sorted(CASES))
def test_metered_snapshot_matches_the_recording(name):
    """The one check on what the meter harvests from a run: a moved
    bucket bound (the RTT layout's 10 s made 20 s) fails here alone, as
    no parity fingerprint or ``EXPERIMENTS.md`` row reads a metric."""
    assert metered_rows(name) == recorded_rows(name)


@pytest.mark.parametrize("name", sorted(CASES))
def test_exposition_of_the_recording_is_pinned(name):
    text = prometheus_text({"metrics": recorded_rows(name)})
    assert hashlib.sha256(text.encode()).hexdigest() == EXPOSITION_SHA256[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_recorded_names_labels_and_layouts_are_well_formed(name):
    for row in recorded_rows(name):
        assert IDENTIFIER.match(row["name"]), row["name"]
        for key in row["labels"]:
            assert IDENTIFIER.match(key), (row["name"], key)
        if row["type"] == "histogram":
            buckets = row["buckets"]
            assert buckets, row["name"]
            assert all(a < b for a, b in zip(buckets, buckets[1:])), row["name"]
            assert len(row["counts"]) == len(buckets) + 1, row["name"]


if __name__ == "__main__":  # pragma: no cover - the recording session
    GOLDEN.write_text(json.dumps({name: metered_rows(name) for name in CASES},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
