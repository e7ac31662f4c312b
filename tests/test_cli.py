"""Unit tests for the CLI (light commands only; full runs live in benches)."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main

SRC = str(Path(repro.__file__).resolve().parents[1])


def _verbs(parser, prefix=()):
    """``(path, parser)`` for every verb and sub-verb that runs."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _verbs(child, (*prefix, name))
            return
    yield prefix, parser


def _minimal_argv(path, parser):
    """``path`` plus a value for each required positional of ``parser``."""
    argv = list(path)
    for action in parser._actions:
        if action.option_strings or action.nargs in ("*", "?"):
            continue
        argv.append(action.choices[0] if action.choices else "x")
    return argv


def _python(*args):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC})


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


class TestDispatchContract:
    """The parser carries the dispatch, and ``import repro`` loads nothing."""

    def test_every_verb_and_sub_verb_parses_to_a_handler(self):
        verbs = {" ".join(path): _minimal_argv(path, parser)
                 for path, parser in _verbs(build_parser())}
        assert {"list", "run", "sweep", "lint", "worker serve", "cache serve",
                "journal compact"} <= set(verbs)
        unhandled = [verb for verb, argv in verbs.items()
                     if not callable(getattr(build_parser().parse_args(argv),
                                             "run", None))]
        assert unhandled == []

    def test_import_repro_loads_no_subpackage(self):
        proc = _python("-c", "import sys, repro; print(sorted("
                             "m for m in sys.modules if m.startswith('repro')))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "['repro']\n"

    @pytest.mark.parametrize("verb", ["algorithms", "disciplines"])
    def test_registry_verbs_do_not_load_numpy(self, verb):
        proc = _python("-X", "importtime", "-m", "repro", verb)
        assert proc.returncode == 0, proc.stderr
        imported = {line.rpartition("|")[2].strip()
                    for line in proc.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "repro.cli" in imported
        assert not {name for name in imported
                    if name.split(".")[0] == "numpy"}
