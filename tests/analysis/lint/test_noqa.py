"""Suppression parsing and hygiene (RPR000)."""

from repro.analysis.lint import lint_source, parse_suppressions

# One RPR005 violation on line 2, with room for a trailing comment.
_TEMPLATE = "def install():\n    register_algorithm('x', lambda: None){comment}\n"


def _lint(comment=""):
    return lint_source(_TEMPLATE.format(comment=comment))


class TestValidSuppression:
    def test_justified_coded_suppression_silences(self):
        assert _lint("  # repro: noqa[RPR005] -- serial-only demo registry") == []

    def test_multiple_codes_one_comment(self):
        source = (
            "import time\n"
            "def f():\n"
            "    register_algorithm(str(time.time()), lambda: None)"
            "  # repro: noqa[RPR001,RPR005] -- demo of multi-code suppression\n"
        )
        assert lint_source(source, module="repro.demo") == []

    def test_suppression_only_covers_its_own_line(self):
        source = (
            "def f():  # repro: noqa[RPR005] -- wrong line\n"
            "    register_algorithm('x', lambda: None)\n"
        )
        assert [v.code for v in lint_source(source)] == ["RPR005"]

    def test_codes_are_case_insensitive(self):
        assert _lint("  # repro: noqa[rpr005] -- lowercase is fine") == []


class TestHygiene:
    def test_blanket_noqa_is_rpr000_and_silences_nothing(self):
        codes = [v.code for v in _lint("  # repro: noqa")]
        assert sorted(codes) == ["RPR000", "RPR005"]

    def test_unjustified_noqa_is_rpr000_and_silences_nothing(self):
        codes = [v.code for v in _lint("  # repro: noqa[RPR005]")]
        assert sorted(codes) == ["RPR000", "RPR005"]

    def test_unknown_code_is_rpr000(self):
        codes = [v.code for v in _lint("  # repro: noqa[RPR999] -- no such rule")]
        assert sorted(codes) == ["RPR000", "RPR005"]

    def test_rpr000_cannot_be_suppressed(self):
        source = "x = 1  # repro: noqa[RPR000] -- trying to silence hygiene\n"
        violations = lint_source(source)
        assert [v.code for v in violations] == ["RPR000"]
        assert "cannot be suppressed" in violations[0].message


class TestParsing:
    def test_docstring_text_is_not_a_suppression(self):
        source = '"""Docs mention `# repro: noqa[RPR001] -- like so`."""\nx = 1\n'
        assert parse_suppressions(source) == []

    def test_comment_is_parsed_with_line_and_codes(self):
        source = "x = 1  # repro: noqa[RPR001, RPR005] -- two codes\n"
        (supp,) = parse_suppressions(source)
        assert supp.line == 1
        assert supp.codes == ("RPR001", "RPR005")
        assert supp.justification == "two codes"
        assert supp.is_justified and not supp.is_blanket

    def test_unparseable_source_yields_no_suppressions(self):
        assert parse_suppressions("def broken(:\n") == []
