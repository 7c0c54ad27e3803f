"""Static checks on the package source, with the standard library only."""

import ast
from pathlib import Path

import majinv

PACKAGE = Path(majinv.__file__).parent


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; __future__ imports aside."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_check_sees_one():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b as c, d\nd()\n"
    assert _unused_imports(source) == ["os (line 2)", "c (line 3)"]


def test_modules_use_every_import():
    # __init__.py imports to re-export, so it is left out
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {
        p.name: found
        for p in modules
        if (found := _unused_imports(p.read_text(encoding="utf-8")))
    }
    assert unused == {}
