"""Every ``from repro… import name`` in ``examples/`` resolves.

The example scripts are the only callers of several ``repro.analysis``
names, and ``make examples`` runs them after tier-1 and only in CI.
This parses each one without executing it and resolves what it imports,
so a rename fails here, in milliseconds, where the rename is made.
"""

import ast
import importlib
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


def _repro_imports(path):
    """``(module, name or None)`` for every import of the package."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if module.split(".")[0] == "repro":
                yield from ((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "repro")


def test_there_are_examples_to_check():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports_resolve(path):
    imports = list(_repro_imports(path))
    assert imports, f"{path.name} imports nothing from repro"
    for module, name in imports:
        imported = importlib.import_module(module)
        if name is not None and not hasattr(imported, name):
            # ``from package import submodule`` is an import, not an attribute.
            importlib.import_module(f"{module}.{name}")
