"""``# repro: noqa[CODE] -- justification`` suppression comments.

The syntax is deliberately stricter than flake8's ``# noqa``:

- a rule code is **mandatory** — ``# repro: noqa`` with no ``[...]``
  is a *blanket* suppression and is itself reported as RPR000;
- a justification is **mandatory** — everything after a `` -- ``
  separator; a suppression without one is also RPR000.

A valid suppression silences the listed codes on its own physical line
only.  RPR000 itself cannot be suppressed: suppression hygiene is the
one thing the linter refuses to negotiate about.

Examples::

    t = time.time()  # repro: noqa[RPR001] -- CLI progress display, not sim state
    for item in set(pending):  # repro: noqa[RPR004] -- order-free tally
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass

from repro.analysis.lint.model import RULES, Violation, register_descriptive

__all__ = ["Suppression", "parse_suppressions", "apply_suppressions"]

register_descriptive(
    "RPR000",
    "suppression-hygiene",
    "Blanket or unjustified `# repro: noqa` suppression.",
    """\
Every suppression must name the rule code(s) it silences in square
brackets and carry a one-line justification after ` -- `.  A blanket
`# repro: noqa` hides future violations of *every* rule on that line,
and an unjustified one leaves the next reader guessing whether the
suppression is still warranted.  RPR000 cannot itself be suppressed.""",
)

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa"
    r"(?:\[(?P<codes>[^\]]*)\])?"
    r"(?:\s*--\s*(?P<why>.*\S))?",
)


@dataclass(frozen=True, slots=True)
class Suppression:
    """One parsed ``# repro: noqa`` comment."""

    line: int
    codes: tuple[str, ...]
    justification: str

    @property
    def is_blanket(self) -> bool:
        """True when no rule code was given."""
        return not self.codes

    @property
    def is_justified(self) -> bool:
        """True when a non-empty `` -- why`` trailer was given."""
        return bool(self.justification)


def parse_suppressions(source: str) -> list[Suppression]:
    """All ``# repro: noqa`` comments in ``source``, by physical line.

    Comments are located with :mod:`tokenize` so that noqa-shaped text
    inside docstrings and string literals (the linter documents its own
    syntax, after all) is not mistaken for a suppression.  A suppression
    applies to the physical line its comment sits on, which is where the
    rules report violations.
    """
    found: list[Suppression] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return found  # unparseable files are RPR900's problem
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _NOQA_RE.search(token.string)
        if match is None:
            continue
        raw_codes = match.group("codes") or ""
        codes = tuple(
            code.strip().upper() for code in raw_codes.split(",") if code.strip()
        )
        found.append(Suppression(
            line=token.start[0],
            codes=codes,
            justification=(match.group("why") or "").strip(),
        ))
    return found


def apply_suppressions(
    path: str,
    violations: list[Violation],
    suppressions: list[Suppression],
) -> list[Violation]:
    """Filter suppressed violations; emit RPR000 for malformed suppressions.

    Returns the surviving violations plus one RPR000 per blanket or
    unjustified suppression comment.  Malformed suppressions silence
    nothing.
    """
    valid_by_line: dict[int, set[str]] = {}
    hygiene: list[Violation] = []
    for suppression in suppressions:
        if suppression.is_blanket:
            hygiene.append(Violation(
                path=path, line=suppression.line, col=0, code="RPR000",
                message=("blanket `# repro: noqa` — name the rule code(s), "
                         "e.g. `# repro: noqa[RPR001] -- why`"),
            ))
            continue
        if not suppression.is_justified:
            hygiene.append(Violation(
                path=path, line=suppression.line, col=0, code="RPR000",
                message=("unjustified suppression — append ` -- <one-line "
                         "justification>` after the code"),
            ))
            continue
        unknown = [code for code in suppression.codes if code not in RULES]
        if unknown:
            hygiene.append(Violation(
                path=path, line=suppression.line, col=0, code="RPR000",
                message=f"suppression names unknown rule(s): {', '.join(unknown)}",
            ))
            continue
        unsuppressable = {"RPR000", "RPR900"}.intersection(suppression.codes)
        if unsuppressable:
            hygiene.append(Violation(
                path=path, line=suppression.line, col=0, code="RPR000",
                message=f"{', '.join(sorted(unsuppressable))} cannot be suppressed",
            ))
            continue
        valid_by_line.setdefault(suppression.line, set()).update(suppression.codes)

    kept = [
        violation for violation in violations
        if violation.code not in valid_by_line.get(violation.line, ())
    ]
    return kept + hygiene
