"""Checks on the package source itself."""

import ast
from pathlib import Path

import teachdim

SOURCES = sorted(Path(teachdim.__file__).parent.glob("*.py"))
# The hitting-set kernel behind TS, TD, TD_min and RTD.
KERNEL = {"_small_hitting_set", "_min_hitting_set", "_lex_min_hitting_set", "_packing",
          "min_teaching_set", "_strip_decision"}


def test_package_has_no_bare_assert():
    # `python -O` strips assert statements, so no check may rely on one.
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert SOURCES
    assert found == []


def test_subset_oracle_shares_nothing_with_the_kernel():
    # The oracle cross-checks `rtd`, so it may call no function of teaching.py:
    # none of the kernel's, and none that could reach it.
    path = Path(teachdim.__file__).parent / "teaching.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert KERNEL <= defs.keys()
    used = {node.id for node in ast.walk(defs["rtd_oracle_subsets"]) if isinstance(node, ast.Name)}
    assert used & defs.keys() == set()
