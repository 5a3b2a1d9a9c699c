"""The package imports nothing outside the standard library."""

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
