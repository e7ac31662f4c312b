"""Synchronisation is classified in one place, and the tree may not
drift back.

``classify_sync`` in ``analysis/synchronization.py`` is the only code
under ``src/repro`` that builds a ``SyncVerdict``, and the only code
that *chooses* a ``SyncMode`` — everything else reads a verdict's mode
and compares it.  These are structural facts, so they are checked on
the syntax tree: a second classifier beside the first would compile,
pass every behavioural test on the day it is written, and rot from
there (it did once: ``classify_phase``, ``group_phase`` and
``classify_ensemble`` were three for one statistic).
"""

import ast
from pathlib import Path

import repro
from repro.analysis import synchronization

SRC = Path(repro.__file__).parent
SYNCHRONIZATION = Path(synchronization.__file__)

#: States a *prediction* (the §4.3.3 conjecture), not a measurement.
PREDICTS = ("analysis/conjecture.py", "predict")


def _functions(tree):
    """``(function name, node)`` for every node, ``<module>`` outside one."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)
            yield inner, child
            yield from visit(child, inner)
    return visit(tree, "<module>")


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(
            path.read_text(), str(path))


def _named(node, name):
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)


def test_one_function_builds_a_verdict():
    builders = [(path, owner) for path, tree in _trees()
                for owner, node in _functions(tree)
                if isinstance(node, ast.Call) and _named(node.func, "SyncVerdict")]
    assert builders == [("analysis/synchronization.py", "classify_sync")]


def test_modes_are_chosen_only_by_the_classifier():
    """Outside the module a ``SyncMode.X`` may only be compared against."""
    chosen = set()
    for path, tree in _trees():
        if path == "analysis/synchronization.py":
            continue
        compared = {id(inner) for _, node in _functions(tree)
                    if isinstance(node, ast.Compare)
                    for inner in ast.walk(node)}
        chosen |= {(path, owner) for owner, node in _functions(tree)
                   if isinstance(node, ast.Attribute)
                   and _named(node.value, "SyncMode")
                   and id(node) not in compared}
    assert chosen == {PREDICTS}


def test_one_enum_one_verdict_one_vocabulary():
    tree = ast.parse(SYNCHRONIZATION.read_text())
    classes = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    assert classes == ["SyncMode", "SyncVerdict"]
    assert [mode.name for mode in synchronization.SyncMode] == [
        "DROP_SYNCHRONIZED", "IN_PHASE", "OUT_OF_PHASE", "DESYNCHRONIZED"]
    assert [mode.code for mode in synchronization.SyncMode] == [3, 2, 1, 0]
    assert synchronization.__all__ == [
        "SyncMode", "SyncVerdict", "classify_sync", "mean_correlation",
        "drop_coincidence", "alternation_fraction"]
