"""Every ``docs/<file>.md, "<heading>"`` citation names a section that exists.

A citation is a docs path, a comma and a quoted heading, as in
``(docs/analysis_methods.md, "One check per invariant: the pin
audit")``; it may wrap across lines, comment markers included.  It
resolves when a ``#`` heading of that file, or a bold run-in heading
(``**Cost and rounding.**`` opening a line), starts with the quoted
text.  Citations are read from ROADMAP.md, README.md, ``docs/`` and the
Python sources under ``src/``, ``tests/`` and ``benchmarks/``, so a
renamed section fails here until every place that cites it follows.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [ROOT / "ROADMAP.md", ROOT / "README.md",
           *sorted((ROOT / "docs").glob("*.md")),
           *sorted(path for top in ("src", "tests", "benchmarks")
                   for path in (ROOT / top).rglob("*.py")
                   if path != Path(__file__).resolve())]

CITATION = re.compile(r'docs/(\w+\.md)`?\)?,[\s#]*"([^"]+)"')
HEADING = re.compile(r"^(?:#+ +(.+)|\*\*(.+?)\*\*)", re.MULTILINE)


def _words(text: str) -> str:
    """``text`` with comment markers dropped and whitespace collapsed."""
    return " ".join(text.replace("#", " ").split())


def citations(text: str) -> list[tuple[str, str]]:
    """``(doc, heading)`` for each citation in ``text``."""
    return [(doc, _words(heading)) for doc, heading in CITATION.findall(text)]


def headings(doc: str) -> list[str]:
    """The ``#`` and bold run-in headings of ``docs/<doc>``."""
    path = ROOT / "docs" / doc
    if not path.is_file():
        return []
    return [_words(hashed or bold)
            for hashed, bold in HEADING.findall(path.read_text())]


def unresolved(text: str) -> list[str]:
    return [f'docs/{doc}, "{heading}"' for doc, heading in citations(text)
            if not any(title.startswith(heading) for title in headings(doc))]


def test_cited_headings_exist():
    missing = [f"{path.relative_to(ROOT).as_posix()}: {citation}"
               for path in SOURCES for citation in unresolved(path.read_text())]
    assert missing == []


def test_a_stale_citation_is_caught():
    text = ('(docs/analysis_methods.md, "Oracles"); `docs/analysis_methods.md`,\n'
            '# "No such\n# heading"; docs/nowhere.md, "Oracles"')
    assert citations(text) == [("analysis_methods.md", "Oracles"),
                               ("analysis_methods.md", "No such heading"),
                               ("nowhere.md", "Oracles")]
    assert unresolved(text) == ['docs/analysis_methods.md, "No such heading"',
                                'docs/nowhere.md, "Oracles"']
