"""The `repro lint` subcommand: exit codes, --explain, --list, report formats."""

import json
import pathlib

import pytest

from repro.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
REPO_SRC = pathlib.Path(__file__).parents[3] / "src"

ALL_CODES = ["RPR000", "RPR001", "RPR004", "RPR005", "RPR007", "RPR008",
             "RPR900"]


def test_clean_file_exits_zero(capsys):
    assert main(["lint", str(FIXTURES / "rpr001_good.py")]) == 0
    assert "no violations found" in capsys.readouterr().out


def test_violations_exit_one_with_report(capsys):
    assert main(["lint", str(FIXTURES / "rpr001_bad.py")]) == 1
    out = capsys.readouterr().out
    assert "RPR001" in out
    assert "violations found" in out


def test_explain_prints_rationale(capsys):
    assert main(["lint", "--explain", "RPR004"]) == 0
    out = capsys.readouterr().out
    assert "RPR004" in out
    assert "noqa" in out


def test_explain_unknown_code_exits_two(capsys):
    assert main(["lint", "--explain", "RPR999"]) == 2
    assert "error:" in capsys.readouterr().err


def test_list_shows_every_code(capsys):
    assert main(["lint", "--list"]) == 0
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.strip().splitlines()] == ALL_CODES


def test_list_output_is_stable(capsys):
    assert main(["lint", "--list"]) == 0
    first = capsys.readouterr().out
    assert main(["lint", "--list"]) == 0
    assert capsys.readouterr().out == first
    codes = [line.split()[0] for line in first.strip().splitlines()]
    assert codes == sorted(codes)


def test_explain_works_for_every_registered_code(capsys):
    """A rule added without --explain documentation fails here."""
    from repro.analysis.lint import iter_rules

    assert [rule.code for rule in iter_rules()] == ALL_CODES
    for code in ALL_CODES:
        assert main(["lint", "--explain", code]) == 0
        out = capsys.readouterr().out
        assert code in out
        assert len(out.strip().splitlines()) >= 4, code


def test_missing_path_exits_two(capsys):
    assert main(["lint", "/no/such/dir"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--project", "--cache-file", "--no-cache",
                                  "--baseline"])
def test_project_flag_is_gone(flag, capsys):
    """The whole-program mode, its cache options and the baseline file
    were retired."""
    with pytest.raises(SystemExit) as excinfo:
        main(["lint", flag, str(FIXTURES / "rpr001_good.py")])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_format_json_is_gone(capsys):
    """Reports are `text` for people and `sarif` for CI; there is no third."""
    with pytest.raises(SystemExit) as excinfo:
        main(["lint", "--format", "json", str(FIXTURES / "rpr005_bad.py")])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_format_sarif_to_output_file(tmp_path, capsys):
    bad = FIXTURES / "rpr007_bad.py"
    out_file = tmp_path / "report.sarif"
    assert main(["lint", "--format", "sarif",
                 "--output", str(out_file), str(bad)]) == 1
    captured = capsys.readouterr().out
    assert "violations found" in captured  # text summary still on stdout
    document = json.loads(out_file.read_text())
    assert document["version"] == "2.1.0"
    assert {r["ruleId"] for r in document["runs"][0]["results"]} == {"RPR007"}

