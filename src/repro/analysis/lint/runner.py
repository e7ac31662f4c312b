"""Drive the rule set over sources, files and directory trees.

The runner owns everything rule implementations should not care about:
resolving a file's *logical module* (so path-scoped rules like RPR001's
``repro.engine.rng`` exemption work), parsing, dispatching every
registered rule, applying ``# repro: noqa`` suppressions, and sorting
the surviving violations into a deterministic report.

Logical modules are derived from the path: the segment after the last
``src/`` (or the last path component named ``repro``) onward, dotted.
Files outside the package tree — lint-rule fixtures in the test suite,
scratch scripts — can claim a module identity with a directive comment
in their first ten lines::

    # repro-lint-module: repro.net.example
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.lint.model import RULES, Violation, register_descriptive
from repro.analysis.lint.noqa import apply_suppressions, parse_suppressions
from repro.errors import LintError

__all__ = [
    "LintContext",
    "lint_source",
    "lint_file",
    "lint_paths",
    "iter_python_files",
    "format_violations",
]

register_descriptive(
    "RPR900",
    "unparseable-source",
    "The file could not be parsed as Python (syntax error or not UTF-8).",
    """\
The linter works on the AST; a file with a syntax error — or one that
is not valid UTF-8 and so cannot even be read as text — cannot be
checked at all, so it is reported as a violation rather than silently
skipped (a broken module in `src/` is never acceptable) or raised as a
crash out of `lint_paths`.  Fix the syntax error or re-encode the file;
RPR900 cannot be suppressed.""",
)

_MODULE_DIRECTIVE = re.compile(r"#\s*repro-lint-module:\s*([\w.]+)")
_SKIP_DIR_NAMES = {
    "__pycache__", ".git", ".hypothesis", ".pytest_cache",
    ".ruff_cache", "build", "dist",
}


@dataclass(frozen=True)
class LintContext:
    """Everything a rule check receives about one source file."""

    path: str
    source: str
    tree: ast.Module
    module: str
    """Logical dotted module ("repro.net.link"), or "" when unknown."""


def resolve_module(path: str | Path, source: str) -> str:
    """The logical dotted module of a file, for path-scoped rules."""
    for line in source.splitlines()[:10]:
        match = _MODULE_DIRECTIVE.search(line)
        if match:
            return match.group(1)
    parts = Path(path).with_suffix("").parts
    anchor = None
    for index, part in enumerate(parts):
        if part == "repro":
            anchor = index  # keep the last occurrence
    if anchor is None:
        return ""
    dotted = list(parts[anchor:])
    if dotted[-1] == "__init__":
        dotted.pop()
    return ".".join(dotted)


def lint_source(
    source: str,
    path: str = "<string>",
    module: str | None = None,
) -> list[Violation]:
    """Lint one source text; returns violations in report order."""
    display = str(path)
    try:
        tree = ast.parse(source, filename=display)
    except SyntaxError as exc:
        return [Violation(
            path=display, line=exc.lineno or 1, col=exc.offset or 0,
            code="RPR900", message=f"syntax error: {exc.msg}",
        )]
    context = LintContext(
        path=display,
        source=source,
        tree=tree,
        module=resolve_module(display, source) if module is None else module,
    )
    violations: list[Violation] = []
    for code in sorted(RULES):
        check = RULES[code].check
        if check is not None:
            violations.extend(check(context))
    violations = apply_suppressions(display, violations, parse_suppressions(source))
    return sorted(violations, key=lambda violation: violation.sort_key)


def lint_file(path: str | Path, module: str | None = None) -> list[Violation]:
    """Lint one file on disk."""
    target = Path(path)
    try:
        source = target.read_text()
    except UnicodeDecodeError as exc:
        return [Violation(
            path=str(target), line=1, col=0, code="RPR900",
            message=(f"not valid UTF-8: {exc.reason} at byte {exc.start} — "
                     "re-encode the file or remove it from the lint set"),
        )]
    except OSError as exc:
        raise LintError(f"cannot read {target}: {exc}") from exc
    return lint_source(source, path=str(target), module=module)


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``*.py`` files."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not _SKIP_DIR_NAMES.intersection(candidate.parts):
                    yield candidate
        elif path.is_file():
            yield path
        else:
            raise LintError(f"no such file or directory: {path}")


def lint_paths(paths: Iterable[str | Path]) -> list[Violation]:
    """Lint every Python file under ``paths``; deterministic order."""
    violations: list[Violation] = []
    for path in iter_python_files(paths):
        violations.extend(lint_file(path))
    return sorted(violations, key=lambda violation: violation.sort_key)


def format_violations(violations: list[Violation]) -> str:
    """The report body: one canonical line per violation plus a summary."""
    lines = [violation.format() for violation in violations]
    count = len(violations)
    lines.append(f"{count} violation{'s' if count != 1 else ''} found"
                 if count else "no violations found")
    return "\n".join(lines)
