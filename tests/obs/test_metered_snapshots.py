"""Metered snapshots of figures 2 and 4, pinned row for row.

``tests/golden/metered_snapshots.json`` holds the full
``snapshot()["metrics"]`` rows of a metered ``paper.figure2()`` and
``paper.figure4()`` run, less the wall-clock ``repro_run_wall_seconds``
gauge.  It was recorded by running this module as a script
(``PYTHONPATH=src python -m tests.obs.test_metered_snapshots``) while the
meter still probed RTT samples live, so it is the proof that harvesting
everything from the finished run changed no metric name, label, help
string, bucket layout or value.  Floats survive the JSON round trip
exactly, and the comparison is ``==``.
"""

import json
from pathlib import Path

import pytest

from repro.scenarios import paper, run

GOLDEN = Path(__file__).parents[1] / "golden" / "metered_snapshots.json"

CASES = {"figure2": paper.figure2, "figure4": paper.figure4}


def metered_rows(name: str) -> list:
    rows = run(CASES[name](), metrics=True).metrics.snapshot()["metrics"]
    return json.loads(json.dumps(
        [row for row in rows if row["name"] != "repro_run_wall_seconds"]))


@pytest.mark.parametrize("name", sorted(CASES))
def test_metered_snapshot_matches_the_recording(name):
    assert metered_rows(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":  # pragma: no cover - the recording session
    GOLDEN.write_text(json.dumps({name: metered_rows(name) for name in CASES},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
