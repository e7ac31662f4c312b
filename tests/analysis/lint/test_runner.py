"""Runner mechanics: module resolution, file walking, RPR900, reports."""

from pathlib import Path

import pytest

from repro.analysis.lint import (
    format_violations,
    get_rule,
    iter_rules,
    lint_paths,
    lint_source,
)
from repro.analysis.lint.runner import iter_python_files, resolve_module
from repro.errors import LintError

from .test_cli import ALL_CODES, FIXTURES, REPO_SRC


class TestModuleResolution:
    def test_path_based(self):
        assert resolve_module("src/repro/net/link.py", "") == "repro.net.link"
        assert resolve_module("src/repro/__init__.py", "") == "repro"
        assert resolve_module("/elsewhere/scratch.py", "") == ""

    def test_directive_wins_over_path(self):
        source = "# repro-lint-module: repro.engine.rng\nimport random\nx = random.random()\n"
        assert resolve_module("/tmp/whatever.py", source) == "repro.engine.rng"
        # The directive exempts this file from RPR001.
        assert lint_source(source, path="/tmp/whatever.py") == []


class TestSyntaxErrors:
    def test_unparseable_file_is_rpr900(self):
        violations = lint_source("def broken(:\n", path="bad.py")
        assert [v.code for v in violations] == ["RPR900"]
        assert "syntax error" in violations[0].message

    def test_non_utf8_file_is_rpr900_not_a_crash(self, tmp_path):
        target = tmp_path / "latin1.py"
        target.write_bytes(b"# caf\xe9\nx = 1\n")
        violations = lint_paths([tmp_path])
        assert [v.code for v in violations] == ["RPR900"]
        assert "not valid UTF-8" in violations[0].message
        assert violations[0].path == str(target)


class TestFileWalking:
    def test_directories_expand_sorted_and_skip_caches(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("x = 1\n")
        for skipped in ("__pycache__", ".ruff_cache", "build", "dist"):
            subdir = tmp_path / skipped
            subdir.mkdir()
            (subdir / "ignored.py").write_text("x = 1\n")
        names = [p.name for p in iter_python_files([tmp_path])]
        assert names == ["a.py", "b.py"]

    def test_missing_path_raises_lint_error(self):
        with pytest.raises(LintError):
            list(iter_python_files(["/no/such/path"]))

    def test_lint_paths_aggregates(self, tmp_path):
        (tmp_path / "clean.py").write_text("x = 1\n")
        (tmp_path / "broken.py").write_text("def oops(:\n")
        violations = lint_paths([tmp_path])
        assert [v.code for v in violations] == ["RPR900"]


class TestRegistry:
    def test_all_rules_registered(self):
        assert [rule.code for rule in iter_rules()] == ALL_CODES

    def test_explain_mentions_suppression_syntax(self):
        text = get_rule("RPR004").explain()
        assert "RPR004" in text
        assert "noqa" in text

    def test_unknown_code_raises(self):
        with pytest.raises(LintError):
            get_rule("RPR999")


def test_shipped_tree_is_clean():
    """`repro lint src` finds nothing — clean by construction."""
    assert lint_paths([REPO_SRC]) == []


def test_tests_and_benchmarks_are_clean():
    """`repro lint tests benchmarks` finds nothing outside the rule
    fixtures, which `test_rules.py` pins one by one: a new violation or a
    stale suppression in test or bench code fails here."""
    found = lint_paths([REPO_SRC.parent / "tests", REPO_SRC.parent / "benchmarks"])
    assert [v.format() for v in found
            if FIXTURES not in Path(v.path).parents] == []


class TestReport:
    def test_empty_report(self):
        assert format_violations([]) == "no violations found"

    def test_report_lines_and_summary(self):
        violations = lint_source("def broken(:\n", path="bad.py")
        text = format_violations(violations)
        assert text.startswith("bad.py:1:")
        assert text.endswith("1 violation found")
