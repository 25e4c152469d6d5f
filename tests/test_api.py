"""The package's public API: every exported name exists, no module imports
a name it does not use, and no function, class or module-level constant
goes unreferenced."""

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
    """Every name read in src/, tests/ and demos/, and every name the benchmark
    in perfbench/ reads, as code or as a string (it patches lexcite's entry
    points by name). An assignment is not a read."""
    names = set()
    for folder in ("src", "tests", "demos", "perfbench"):
        for path in (REPO / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.split(".")[-1])
                elif folder == "perfbench" and isinstance(node, ast.Constant) \
                        and isinstance(node.value, str) and node.value.isidentifier():
                    names.add(node.value)
    return names


def _definitions(path):
    """The functions and classes defined anywhere in `path`, and the
    constants assigned at its module level: (line, name) pairs."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield node.lineno, name.id


def test_every_definition_is_referenced():
    referenced = _referenced_names()
    dead = [f"{path.name}:{line} {name}"
            for path in MODULES + [PACKAGE / "__init__.py"]
            for line, name in _definitions(path)
            if not (name.startswith("__") and name.endswith("__")) and name not in referenced]
    assert not dead
