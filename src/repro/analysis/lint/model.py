"""Rule registry and violation model for the determinism linter.

A rule is a named check with a stable ``RPRnnn`` code, a one-line
summary (shown in violation listings) and a longer rationale (shown by
``repro lint --explain CODE``).  Rules register themselves with the
:func:`rule` decorator; the registry is what the CLI, the suppression
layer and the docs generator consume.

The :data:`LINT_RULESET_VERSION` integer is bumped whenever a rule is
added, removed, or its detection logic changes meaningfully.  The sweep
result cache records it alongside each entry so a cache file says which
generation of static checking the producing tree had passed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, TYPE_CHECKING

from repro.errors import LintError

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.lint.runner import LintContext

__all__ = [
    "LINT_RULESET_VERSION",
    "Violation",
    "Rule",
    "RULES",
    "rule",
    "iter_rules",
    "get_rule",
    "explain",
]

#: Bump when rules are added/removed or detection logic changes.
#: v2: RPR007 (swallowed exceptions) added with the resilience layer.
#: v3: RPR005 extended to `register_algorithm` factories (lambdas, nested
#:     functions and nested classes registered as congestion strategies).
#: v4: RPR008 (constant dispatch hooks probed inside hot loop bodies).
#: v5: whole-program layer (`repro lint --project`): RPR009 nondeterminism
#:     taint reaching determinism sinks, RPR010 cross-module unpicklable
#:     sweep callables, RPR011 registry contract violations; RPR900 now
#:     also covers undecodable (non-UTF-8) files.
#: v6: RPR008 extended to metrics probes: `_meter`/`_metrics` attributes
#:     and `_fan`/`_probe` suffixes probed inside engine/net/tcp hot
#:     loops are now flagged alongside tracer/sanitizer/observer reads.
#: v7: RPR005/RPR010 extended to the worker-agent protocol boundary:
#:     callables handed to `extract_reference` ship as module+qualname
#:     references and re-import on remote agents, so lambdas, nested
#:     definitions and closure-factory results are flagged there too.
#: v8: RPR005 and RPR011 extended to the queue-discipline registry:
#:     `register_discipline` arguments get the same
#:     module-level requirement, and registered queue classes are checked
#:     against the DropTailQueue interface (base chain, `offer`/`take`
#:     arity, `__slots__` on every chain class).
#: v9: whole-program layer retired (RPR009, RPR010, RPR011 and `--project`
#:     removed): no finding outside its fixtures since v5; the runtime
#:     checks at the sweep, protocol and registry boundaries remain.
#: v10: RPR004 and RPR006 see `Simulator.post`, the handle-free way the
#:     packet path puts work on the calendar, as a scheduling call.
#: v11: RPR003 and RPR006 retired: the strict sanitizer fails a tier-1 run
#:     on every planted mutation of an Event's ordering fields and every
#:     non-finite timestamp.  RPR008 names only hook attributes that exist.
#:     `--format json` removed.
#: v12: RPR005 sees one registry signature, `(name, factory)`, for both
#:     register functions; the discipline keyword it used to recognise is
#:     gone from the API and from the rule.
#: v13: RPR005 no longer flags a sweep's `make_config`: the runner calls
#:     it in the parent, and only the configs it returns cross to workers.
#: v14: RPR002 retired: the parity fingerprints and the scaling oracles
#:     fail on a planted tolerance-needing timestamp `==`, and every `==`
#:     it matched was exact on purpose.  RPR005 keeps only registrations:
#:     the sweep runner and `extract_reference` refuse a lambda or nested
#:     extractor before any worker starts.  `--baseline` removed.
LINT_RULESET_VERSION = 14

CheckFunction = Callable[["LintContext"], Iterator["Violation"]]


@dataclass(frozen=True, slots=True)
class Violation:
    """One finding: a rule fired at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    @property
    def sort_key(self) -> tuple[str, int, int, str]:
        """Deterministic report order: path, then position, then code."""
        return (self.path, self.line, self.col, self.code)

    def format(self) -> str:
        """The canonical ``path:line:col: CODE message`` display form."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass(frozen=True)
class Rule:
    """A registered static check."""

    code: str
    name: str
    summary: str
    rationale: str
    check: CheckFunction | None = field(default=None, compare=False)

    def explain(self) -> str:
        """Multi-line help text for ``repro lint --explain``."""
        lines = [f"{self.code} ({self.name})", "", self.summary, ""]
        lines.append(self.rationale.strip())
        lines.append("")
        lines.append(
            f"Suppress a single line with:  # repro: noqa[{self.code}] -- <why>"
        )
        return "\n".join(lines)


#: code -> Rule, in registration order (insertion-ordered dict).
RULES: dict[str, Rule] = {}


def rule(code: str, name: str, summary: str, rationale: str) -> Callable[[CheckFunction], CheckFunction]:
    """Class-free registration decorator for rule check functions."""

    def decorator(check: CheckFunction) -> CheckFunction:
        if code in RULES:
            raise LintError(f"duplicate lint rule code {code}")
        RULES[code] = Rule(code=code, name=name, summary=summary,
                           rationale=rationale, check=check)
        return check

    return decorator


def register_descriptive(code: str, name: str, summary: str, rationale: str) -> None:
    """Register a rule that has no AST check (emitted by other layers)."""
    if code in RULES:
        raise LintError(f"duplicate lint rule code {code}")
    RULES[code] = Rule(code=code, name=name, summary=summary,
                       rationale=rationale, check=None)


def iter_rules() -> Iterable[Rule]:
    """All registered rules in code order."""
    return [RULES[code] for code in sorted(RULES)]


def get_rule(code: str) -> Rule:
    """Look up one rule; raises :class:`LintError` for unknown codes."""
    normalized = code.strip().upper()
    try:
        return RULES[normalized]
    except KeyError:
        known = ", ".join(sorted(RULES))
        raise LintError(f"unknown lint rule {code!r} (known: {known})") from None


def explain(code: str) -> str:
    """The ``--explain`` text for a rule code."""
    return get_rule(code).explain()
