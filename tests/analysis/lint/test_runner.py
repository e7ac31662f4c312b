"""Runner mechanics: module resolution, file walking, RPR900, baselines, reports."""

import json

import pytest

from repro.analysis.lint import (
    apply_baseline,
    format_violations,
    get_rule,
    iter_rules,
    lint_paths,
    lint_source,
    load_baseline,
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
        text = get_rule("RPR002").explain()
        assert "RPR002" in text
        assert "noqa" in text

    def test_unknown_code_raises(self):
        with pytest.raises(LintError):
            get_rule("RPR999")


class TestBaseline:
    def test_suffix_and_code_matching(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(
            [{"path": "fixtures/rpr005_bad.py", "code": "RPR005"}]))
        violations = lint_paths([FIXTURES / "rpr005_bad.py"])
        assert {v.code for v in violations} == {"RPR005"}
        filtered = apply_baseline(violations, load_baseline(baseline))
        assert filtered == []

    def test_baseline_does_not_hide_other_codes(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(
            [{"path": "fixtures/rpr007_bad.py", "code": "RPR001"}]))
        violations = lint_paths([FIXTURES / "rpr007_bad.py"])
        assert violations
        assert apply_baseline(violations, load_baseline(baseline)) == violations

    def test_malformed_baseline_raises(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"path": "x"}))
        with pytest.raises(LintError):
            load_baseline(baseline)

    def test_shipped_ci_baseline_loads(self):
        shipped = FIXTURES.parent / "ci-baseline.json"
        entries = load_baseline(shipped)
        assert entries, "the CI baseline must cover the rule fixtures"
        assert all(code in ALL_CODES for _path, code in entries)


def test_shipped_tree_is_clean():
    """`repro lint src` finds nothing — clean by construction."""
    assert lint_paths([REPO_SRC]) == []


class TestReport:
    def test_empty_report(self):
        assert format_violations([]) == "no violations found"

    def test_report_lines_and_summary(self):
        violations = lint_source("def broken(:\n", path="bad.py")
        text = format_violations(violations)
        assert text.startswith("bad.py:1:")
        assert text.endswith("1 violation found")
