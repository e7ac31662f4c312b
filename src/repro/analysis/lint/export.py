"""The machine-readable lint report: ``--format sarif``.

The renderer is deterministic — violations in canonical sort order,
rules in code order, keys sorted — so CI artifacts diff cleanly between
runs and the SARIF upload annotates PRs stably.  Rule metadata (name,
summary, rationale) is embedded so a report is self-describing without
the producing checkout.
"""

from __future__ import annotations

import json

from repro.analysis.lint.model import LINT_RULESET_VERSION, Violation, iter_rules

__all__ = ["render_sarif"]

_TOOL_NAME = "repro-lint"
_TOOL_URI = "https://example.invalid/repro/docs/analysis_methods.md"


def render_sarif(violations: list[Violation]) -> str:
    """A SARIF 2.1.0 log (one run, every registered rule described)."""
    rules = list(iter_rules())
    rule_index = {rule.code: index for index, rule in enumerate(rules)}
    ordered = sorted(violations, key=lambda violation: violation.sort_key)
    results = []
    for violation in ordered:
        result: dict[str, object] = {
            "ruleId": violation.code,
            "level": "error",
            "message": {"text": violation.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": violation.path.replace("\\", "/"),
                    },
                    "region": {
                        "startLine": max(violation.line, 1),
                        "startColumn": violation.col + 1,
                    },
                },
            }],
        }
        if violation.code in rule_index:
            result["ruleIndex"] = rule_index[violation.code]
        results.append(result)
    document = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": _TOOL_NAME,
                    "version": str(LINT_RULESET_VERSION),
                    "informationUri": _TOOL_URI,
                    "rules": [
                        {
                            "id": rule.code,
                            "name": rule.name,
                            "shortDescription": {"text": rule.summary},
                            "fullDescription": {
                                "text": rule.rationale.strip(),
                            },
                        }
                        for rule in rules
                    ],
                },
            },
            "results": results,
        }],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"
