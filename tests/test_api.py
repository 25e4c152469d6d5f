"""The package's public API: every exported name exists, no module imports
a name it does not use, and no function or class goes unreferenced."""

import ast
from pathlib import Path

import pytest

import lexcite

PACKAGE = Path(lexcite.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
REPO = PACKAGE.parent.parent


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


def _referenced_names() -> set[str]:
    names = set()
    for folder in ("src", "tests", "demos"):
        for path in (REPO / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.split(".")[-1])
    return names


def test_every_definition_is_referenced():
    referenced = _referenced_names()
    dead = []
    for path in MODULES + [PACKAGE / "__init__.py"]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not (node.name.startswith("__") and node.name.endswith("__")) \
                    and node.name not in referenced:
                dead.append(f"{path.name}:{node.lineno} {node.name}")
    assert not dead
