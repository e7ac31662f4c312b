"""Smoke tests for the experiment implementations.

Each experiment is run with very short durations — far below what the
verdicts were tuned for — so these tests check the *structure* of the
reports (ids, rows present, informational rows marked) rather than
pass/fail verdicts.  Full-duration verdicts are `repro report`'s:
EXPERIMENTS.md holds them and CI fails when a fresh report differs.
"""

import pytest

from repro.experiments import (
    extensions,
    fixed_window,
    one_way,
    population,
    two_way,
)
from repro.experiments.report import ExperimentReport

SHORT = dict(duration=120.0, warmup=60.0)


def _check_report(report, exp_id):
    assert isinstance(report, ExperimentReport)
    assert report.exp_id == exp_id
    assert len(report.rows) >= 2
    assert report.title
    assert report.paper_ref
    # Every row has non-empty paper and measured strings.
    for row in report.rows:
        assert row.metric and row.paper and row.measured


class TestOneWayExperiments:
    def test_fig2_structure(self):
        _check_report(one_way.fig2(duration=200.0, warmup=80.0), "fig2")

    def test_fig2_small_pipe_structure(self):
        _check_report(one_way.fig2_small_pipe(**SHORT), "fig2_small_pipe")


class TestTwoWayExperiments:
    def test_fig3_structure(self):
        _check_report(two_way.fig3(duration=200.0, warmup=80.0), "fig3")

    def test_fig4_5_structure(self):
        _check_report(two_way.fig4_5(duration=250.0, warmup=100.0), "fig4_5")

    def test_fig6_7_structure(self):
        _check_report(two_way.fig6_7(duration=300.0, warmup=120.0), "fig6_7")

    def test_delayed_ack_structure(self):
        _check_report(two_way.delayed_ack(duration=150.0, warmup=60.0),
                      "delayed_ack")


class TestFixedWindowExperiments:
    def test_fig8_structure(self):
        report = fixed_window.fig8(**SHORT)
        _check_report(report, "fig8")
        # Fixed-window fig8 invariants hold even at short durations.
        assert report.passed

    def test_fig9_structure(self):
        _check_report(fixed_window.fig9(duration=200.0, warmup=100.0), "fig9")

    def test_ack_compression_structure(self):
        report = fixed_window.ack_compression(**SHORT)
        _check_report(report, "ack_compression")
        assert report.passed

    def test_conjecture_structure(self):
        report = fixed_window.conjecture_sweep(duration=100.0, warmup=60.0)
        _check_report(report, "conjecture")
        assert len(report.rows) == 6  # one row per sweep case


class TestExtensionExperiments:
    def test_four_switch_structure(self):
        _check_report(extensions.four_switch(duration=150.0, warmup=60.0),
                      "four_switch")

    def test_clustering_structure(self):
        _check_report(extensions.clustering_two_way(duration=150.0, warmup=60.0),
                      "clustering")

    def test_pacing_structure(self):
        report = extensions.pacing(duration=120.0, warmup=50.0)
        _check_report(report, "pacing")
        assert report.passed  # the mechanism is robust even on short runs


class TestPopulationExperiments:
    def test_meanfield_figure_renders_the_experiments_rows(self, tmp_path):
        """The figure is drawn from the rows the experiment measured:
        one run per N between them, shared through the result cache, and
        the same numbers in both."""
        from repro.parallel import ResultCache

        short = dict(duration=60.0, warmup=20.0, ns=(2, 4))
        cache = ResultCache(tmp_path / "cache")
        report = population.red_meanfield(cache=cache, **short)
        _check_report(report, "red_meanfield")
        assert cache.misses == 2
        figure = population.write_meanfield_figure(tmp_path / "fig.txt",
                                                   cache=cache, **short)
        assert (cache.hits, cache.misses) == (2, 2)
        table = [line.split() for line in figure.read_text().splitlines()[4:6]]
        for row, (n, measured, predicted, *_) in zip(report.rows, table):
            assert row.metric.startswith(f"N={n}:")
            assert row.paper.startswith(f"{float(predicted):.1f} pkts")
            assert row.measured.startswith(f"{float(measured):.1f} pkts")
