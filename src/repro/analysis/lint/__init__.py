"""Determinism & simulation-correctness static analysis (``repro lint``).

An AST-based linter encoding constraints the discrete-event engine
depends on but generic linters cannot express:

========  ==============================================================
RPR000    blanket or unjustified ``# repro: noqa`` suppression
RPR001    wall-clock time / unseeded randomness in simulation code
RPR004    unordered (set) iteration in engine/net/obs hot paths
RPR005    non-module-level algorithm factories / queue disciplines
RPR007    swallowed exceptions in supervision/cache/journal paths
RPR008    constant dispatch hooks probed inside hot loop bodies
RPR900    unparseable source (syntax error or not UTF-8)
========  ==============================================================

Use ``repro lint [paths]`` from the CLI, ``repro lint --explain CODE``
for the rationale behind a rule, and suppress single lines with
``# repro: noqa[CODE] -- justification``.  Every rule looks at one file
at a time.  Each invariant has one check: what the runtime sanitizer
(``Simulator(strict=True)`` or ``REPRO_SANITIZE=1``) enforces — event
ordering fields left alone after scheduling, finite timestamps — has no
rule here (RPR003 and RPR006 were retired for it); simulated times are
compared exactly, and the parity fingerprints and scaling oracles hold
them bit for bit (RPR002 was retired for it); and an extractor that
cannot cross to a worker, or a registered class that is not a
``CongestionControl`` or ``DropTailQueue``, is rejected eagerly where it
is handed over, by ``ParallelSweepRunner``, ``extract_reference`` and
the two registries.
"""

from repro.analysis.lint.model import (
    LINT_RULESET_VERSION,
    RULES,
    Rule,
    Violation,
    explain,
    get_rule,
    iter_rules,
)
from repro.analysis.lint.noqa import Suppression, parse_suppressions
from repro.analysis.lint.runner import (
    LintContext,
    format_violations,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.analysis.lint import rules as _rules  # registers the AST rules
from repro.analysis.lint.export import render_sarif

__all__ = [
    "LINT_RULESET_VERSION",
    "RULES",
    "Rule",
    "Violation",
    "Suppression",
    "LintContext",
    "explain",
    "get_rule",
    "iter_rules",
    "parse_suppressions",
    "lint_source",
    "lint_file",
    "lint_paths",
    "iter_python_files",
    "format_violations",
    "render_sarif",
]

del _rules
