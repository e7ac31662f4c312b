"""Tier-1 smoke: a 16-flow RED dumbbell runs deterministically and the
ensemble classifier returns a verdict.

A short, cheap guard over the whole N-flow stack — family builder,
generalized dumbbell, queue-discipline substitution, sync classifier —
so a regression in any layer fails fast in the default test tier.
"""

from repro.experiments.parity import fingerprint_hash
from repro.scenarios import run
from repro.scenarios.families import manyflow_config, queued_config, sync_extract
from repro.analysis.synchronization import EnsembleMode


def _config():
    return queued_config(
        (16, 40, 0.5),
        make_config=lambda case: manyflow_config(
            case, duration=80.0, warmup=30.0),
        queue="red",
        params=(("max_p", 0.05), ("min_th", 4.0), ("max_th", 12.0)),
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
                                             for m in EnsembleMode}
        assert 0.0 <= measurements["drop_coincidence"] <= 1.0
        assert -1.0 <= measurements["mean_correlation"] <= 1.0
        assert 0.0 < measurements["utilization"] <= 1.0
