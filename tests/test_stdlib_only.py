"""The package imports nothing outside the standard library, and nothing it does not use."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "scadascope"


def imported_roots(source: str) -> set[str]:
    """Top-level names of every absolute import anywhere in ``source``."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_package_imports_only_stdlib():
    allowed = set(sys.stdlib_module_names) | {"scadascope"}
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    outside = {
        path.name: sorted(imported_roots(path.read_text(encoding="utf-8")) - allowed)
        for path in modules
    }
    assert {name: roots for name, roots in outside.items() if roots} == {}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that nothing else in it reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_package_has_no_unused_imports():
    # __init__.py imports names to re-export them.
    modules = [path for path in sorted(PACKAGE_DIR.glob("*.py")) if path.name != "__init__.py"]
    assert modules
    unused = {path.name: unused_imports(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: names for name, names in unused.items() if names} == {}
