"""The package's public API: every exported name exists, and no module
imports a name it does not use."""

import ast
from pathlib import Path

import pytest

import lexcite

MODULES = sorted(p for p in Path(lexcite.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def test_every_public_name_resolves():
    missing = [name for name in lexcite.__all__ if not hasattr(lexcite, name)]
    assert not missing


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - used
