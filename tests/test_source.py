"""Checks on the package source itself."""

import ast
from pathlib import Path

import teachdim

SOURCES = sorted(Path(teachdim.__file__).parent.glob("*.py"))


def test_package_has_no_bare_assert():
    # `python -O` strips assert statements, so no check may rely on one.
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert SOURCES
    assert found == []
