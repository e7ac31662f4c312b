"""Every ``--flag`` the docs show after ``repro <verb>`` is a flag of that
verb, and every rule code they ``--explain`` is registered.

A command is ``repro`` (or ``repro.cli``), a verb of :func:`build_parser`
and, where the verb has its own verbs (``worker serve``, ``cache
serve``), one of those; its flags are every ``--name`` up to the end of
the command: a closing backtick, a ``#`` comment, or a line end that is
not continued with ``\\``.  The sweep epilog is the sweep verb's own
text, so every flag in it is checked against that verb.
"""

import argparse
import re
from pathlib import Path

import pytest

from repro import cli

ROOT = Path(__file__).resolve().parents[1]
DOCUMENTS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]

COMMAND = re.compile(r"(?<![\w./-])repro(?:\.cli)? +([a-z][\w-]*)"
                     r"(?: +([a-z][\w-]*))?")
END = re.compile(r"`|#|(?<!\\)\n")
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
EXPLAIN = re.compile(r"repro lint --explain +([A-Z]+[0-9]+)")


def _verbs(parser: argparse.ArgumentParser) -> dict:
    """``{verb: parser}`` of the subcommands ``parser`` dispatches to."""
    return next((action.choices for action in parser._actions
                 if isinstance(action, argparse._SubParsersAction)), {})


def _flags(parser: argparse.ArgumentParser) -> set[str]:
    return {option for action in parser._actions
            for option in action.option_strings}


def shown_flags(text: str, parser: argparse.ArgumentParser):
    """``(command, flag, known)`` for each flag shown after a command."""
    for command in COMMAND.finditer(text):
        verb, subverb = command.groups()
        target = _verbs(parser).get(verb)
        if target is None:
            continue  # prose: "repro is …", "repro worker agent …"
        words, start = verb, command.end(1)
        if subverb in _verbs(target):
            target = _verbs(target)[subverb]
            words, start = f"{verb} {subverb}", command.end(2)
        end = END.search(text, start)
        span = text[start:end.start() if end else len(text)]
        known = _flags(target)
        for flag in FLAG.findall(span):
            yield words, flag, flag in known


def _sources():
    for path in DOCUMENTS:
        yield path.relative_to(ROOT).as_posix(), path.read_text()
    yield "cli.py module docstring", cli.__doc__


@pytest.mark.parametrize("name, text", list(_sources()),
                         ids=[name for name, _ in _sources()])
def test_shown_flags_exist(name, text):
    unknown = sorted({f"repro {words} {flag}" for words, flag, known
                      in shown_flags(text, cli.build_parser()) if not known})
    assert unknown == [], f"{name} shows flags its verb does not take"


def test_explained_rule_codes_exist():
    """Every ``repro lint --explain CODE`` shown names a registered rule."""
    from repro.analysis.lint import RULES

    shown = {(name, code) for name, text in _sources()
             for code in EXPLAIN.findall(text)}
    assert ("README.md", "RPR004") in shown
    assert sorted(pair for pair in shown if pair[1] not in RULES) == []


def test_sweep_epilog_flags_exist():
    sweep = _verbs(cli.build_parser())["sweep"]
    shown = set(FLAG.findall(cli._SWEEP_EPILOG))
    assert shown and shown <= _flags(sweep), shown - _flags(sweep)


def test_a_stale_flag_is_caught():
    parser = cli.build_parser()
    text = "run `repro sweep conjecture --jobs 2 \\\n  --no-such-flag 1`"
    assert list(shown_flags(text, parser)) == [
        ("sweep", "--jobs", True), ("sweep", "--no-such-flag", False)]
    assert list(shown_flags("repro cache serve --port 0 --bogus",
                            parser)) == [("cache serve", "--port", True),
                                         ("cache serve", "--bogus", False)]
