"""Unit tests for the CLI (light commands only; full runs live in benches)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command(self):
        args = build_parser().parse_args(["run", "fig8", "--fast"])
        assert args.experiment == "fig8"
        assert args.fast

    def test_report_command(self):
        args = build_parser().parse_args(["report", "-o", "out.md"])
        assert args.output == "out.md"

    def test_plot_command(self):
        args = build_parser().parse_args(["plot", "fig4", "--window", "10", "20"])
        assert args.scenario == "fig4"
        assert args.window == [10.0, 20.0]

    def test_plot_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plot", "nope"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMain:
    def test_list_prints_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out
        assert "conjecture" in out

    def test_algorithms_lists_every_registered_strategy_class(self, capsys):
        from repro.tcp import algorithm_names

        assert main(["algorithms"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert [name for name, _ in rows] == algorithm_names()
        assert all(kind.endswith("Control") for _, kind in rows)

    def test_unknown_experiment_is_clean_error(self, capsys):
        assert main(["run", "nope"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_units_helpers(self):
        # Sanity on the units module the CLI relies on indirectly.
        from repro import units

        assert units.kbps(50) == 50_000
        assert units.mbps(10) == 10_000_000
        assert units.transmission_time(500, units.kbps(50)) == pytest.approx(0.08)
        assert units.pipe_size(units.kbps(50), 1.0, 500) == pytest.approx(12.5)
        with pytest.raises(ValueError):
            units.transmission_time(500, 0)
        with pytest.raises(ValueError):
            units.pipe_size(1.0, 1.0, 0)
