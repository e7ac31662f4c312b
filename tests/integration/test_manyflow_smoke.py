"""Tier-1 smoke: a 16-flow RED dumbbell runs deterministically and the
ensemble classifier returns a verdict.

A short, cheap guard over the whole N-flow stack — family builder,
generalized dumbbell, queue-discipline substitution, sync classifier —
so a regression in any layer fails fast in the default test tier.
"""

import pytest

from repro.analysis.synchronization import SyncMode
from repro.experiments.parity import fingerprint_hash
from repro.scenarios import run
from repro.scenarios.families import manyflow_config, substituted, sync_extract

#: ``sync_extract`` of three phase-grid points at this module's
#: durations, as float hex, recorded on the parent of the one-classifier
#: change (three classifiers, two enums): an in-phase, a
#: drop-synchronized and a desynchronized point.  Every bit is part of
#: every cached phase-diagram measurement.
PINNED_SYNC_EXTRACT = {
    (2, 10, 0.0): {
        "mode_code": "0x1.0000000000000p+1",
        "drop_coincidence": "0x1.0000000000000p+0",
        "mean_correlation": "0x1.b9e0807eb160fp-2",
        "epochs": "0x1.0000000000000p+0",
        "utilization": "0x1.0000000000000p+0",
    },
    (8, 40, 1.0): {
        "mode_code": "0x1.8000000000000p+1",
        "drop_coincidence": "0x1.0000000000000p+0",
        "mean_correlation": "0x1.c68081c2ba13bp-3",
        "epochs": "0x1.8000000000000p+1",
        "utilization": "0x1.0000000000000p+0",
    },
    (16, 10, 1.0): {
        "mode_code": "0x0.0p+0",
        "drop_coincidence": "0x1.0000000000000p+0",
        "mean_correlation": "-0x1.6b43492948e8cp-7",
        "epochs": "0x1.0000000000000p+0",
        "utilization": "0x1.0000000000000p+0",
    },
}


def _config():
    return substituted(
        (16, 40, 0.5),
        make_config=lambda case: manyflow_config(
            case, duration=80.0, warmup=30.0),
        queue="red",
        queue_params=(("max_p", 0.05), ("min_th", 4.0), ("max_th", 12.0)),
    )


class TestManyflowSmoke:
    def test_sixteen_flow_red_dumbbell_is_deterministic(self):
        first = run(_config())
        second = run(_config())
        assert fingerprint_hash(first) == fingerprint_hash(second)
        assert sync_extract(first) == sync_extract(second)

    def test_classifier_returns_a_label(self):
        result = run(_config())
        assert len(result.connections) == 16
        measurements = sync_extract(result)
        assert measurements["mode_code"] in {float(m.code)
                                             for m in SyncMode}
        assert 0.0 <= measurements["drop_coincidence"] <= 1.0
        assert -1.0 <= measurements["mean_correlation"] <= 1.0
        assert 0.0 < measurements["utilization"] <= 1.0


@pytest.mark.parametrize("case", sorted(PINNED_SYNC_EXTRACT))
def test_sync_extract_is_bit_identical_to_the_recorded_parent(case):
    result = run(manyflow_config(case, duration=80.0, warmup=30.0))
    measured = {key: value.hex() for key, value in sync_extract(result).items()}
    assert measured == PINNED_SYNC_EXTRACT[case]
    assert list(measured) == list(PINNED_SYNC_EXTRACT[case])
