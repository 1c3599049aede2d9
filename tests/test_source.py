"""Rules that every module of the package keeps."""

from __future__ import annotations

import ast
from pathlib import Path

import contred

PACKAGE = Path(contred.__file__).resolve().parent


def test_no_module_guards_with_assert():
    # a check that guards a result must be an explicit raise: python -O
    # strips assert statements
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
