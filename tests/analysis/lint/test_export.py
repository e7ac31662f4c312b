"""The SARIF exporter: determinism, rule metadata, location encoding."""

import json

from repro.analysis.lint import render_sarif
from repro.analysis.lint.model import Violation, iter_rules

SAMPLE = [
    Violation(path="b.py", line=3, col=4, code="RPR008", message="second"),
    Violation(path="a.py", line=10, col=0, code="RPR001", message="first"),
]


class TestSarif:
    def test_structure_and_locations(self):
        document = json.loads(render_sarif(SAMPLE))
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        results = run["results"]
        assert [r["ruleId"] for r in results] == ["RPR001", "RPR008"]
        region = results[0]["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 10
        assert region["startColumn"] == 1  # SARIF columns are 1-based

    def test_every_rule_described_with_rationale(self):
        document = json.loads(render_sarif([]))
        rules = document["runs"][0]["tool"]["driver"]["rules"]
        assert [r["id"] for r in rules] == [r.code for r in iter_rules()]
        assert all(r["fullDescription"]["text"] for r in rules)

    def test_rule_index_points_into_rules_array(self):
        document = json.loads(render_sarif(SAMPLE))
        run = document["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        for result in run["results"]:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]

    def test_deterministic_output(self):
        assert render_sarif(SAMPLE) == render_sarif(list(reversed(SAMPLE)))
