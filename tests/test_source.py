"""Checks on the package source itself."""

import ast
import inspect
import re
from pathlib import Path

import teachdim

SOURCES = sorted(Path(teachdim.__file__).parent.glob("*.py"))
# The hitting-set kernel behind TS, TD, TD_min and RTD.
KERNEL = {"_small_hitting_set", "_min_hitting_set", "_packing", "min_teaching_set",
          "_strip_decision"}


def test_package_has_no_bare_assert():
    # `python -O` strips assert statements, so no check may rely on one.
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert SOURCES
    assert found == []


def test_only_model_reads_concept_values():
    # The form of a row is model.py's business: elsewhere a concept is read
    # through `mask()`, `row_mask` or `bitstring()`, never through `.values`.
    # A `.values()` call reads a mapping, not a concept, so it is allowed.
    found = []
    for path in SOURCES:
        if path.name == "model.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "values" and id(node) not in called
        ]
    assert found == []


def _read_in_package() -> set[str]:
    """Every name and attribute name that the package reads outside `__init__.py`."""
    read = set()
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def test_every_export_has_a_caller():
    # A public name must be read somewhere in the package or shown in the
    # README's tour, so that dead API cannot pile up behind `__all__`.
    readme = Path(__file__).parent.parent / "README.md"
    shown = set(re.findall(r"\btd\.(\w+)", readme.read_text()))
    assert [name for name in teachdim.__all__ if name not in _read_in_package() | shown] == []


def test_every_public_member_has_a_caller():
    # Likewise a public method or property of an exported class must be read
    # somewhere in the package, by name, so a member cannot outlive its last caller.
    members = [
        f"{name}.{attr}"
        for name in teachdim.__all__
        if inspect.isclass(cls := getattr(teachdim, name))
        for attr, member in vars(cls).items()
        if not attr.startswith("_")
        and (inspect.isfunction(member) or isinstance(member, (property, classmethod, staticmethod)))
    ]
    assert "ReductionOutput.zv_index" in members
    read = _read_in_package()
    assert [m for m in members if m.split(".")[1] not in read] == []


def test_subset_oracle_shares_nothing_with_the_kernel():
    # The oracle cross-checks `rtd`, so it may call no function of teaching.py:
    # none of the kernel's, and none that could reach it.
    path = Path(teachdim.__file__).parent / "teaching.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert KERNEL <= defs.keys()
    used = {node.id for node in ast.walk(defs["rtd_oracle_subsets"]) if isinstance(node, ast.Name)}
    assert used & defs.keys() == set()


def test_cli_writes_files_only_through_write():
    # Every output file goes through the atomic `_write`, so no command can
    # leave a truncated file or skip its error handling.
    path = Path(teachdim.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    inside = {id(node) for node in ast.walk(defs["_write"])}

    def name(func):
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)

    writes = {"write_text", "write_bytes", "open"}
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call) and name(node.func) in writes]
    assert any(id(node) in inside for node in calls)
    assert [node.lineno for node in calls if id(node) not in inside] == []


def _imported(module: str) -> list[str]:
    """"<module>.<name>" for each from-import of a package module, the module for each import."""
    path = Path(teachdim.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{node.module or ''}.{alias.name}" if isinstance(node, ast.ImportFrom) else alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]


def test_gadget_check_calls_no_solver():
    # `verify_gadget` cross-checks the solver's answers on the gadget, so
    # gadget.py may import nothing from teaching.py.
    imported = _imported("gadget")
    assert "model._taught" in imported
    assert [name for name in imported if "teaching" in name.split(".")] == []


def test_solver_draws_no_random_numbers():
    # Every `ts`, `td`, `tdmin` and `rtd` result is reproducible, so teaching.py
    # may import nothing from `random`; order independence is tested by
    # shuffling the class instead.
    imported = _imported("teaching")
    assert "dataclasses.dataclass" in imported
    assert [name for name in imported if name.split(".")[0] == "random"] == []


def test_imports_stay_within_the_standard_set():
    # Every import adds start-up time to each CLI call, and the package has no
    # runtime dependencies, so a module may import only itself and these.
    allowed = {
        teachdim.__name__, "__future__", "argparse", "collections", "dataclasses", "functools",
        "hashlib", "io", "itertools", "json", "math", "operator", "os", "pathlib", "random", "sys",
        "time",
    }
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                found += [f"{path.name}:{node.lineno} {node.module}"]
            elif isinstance(node, ast.Import):
                found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names]
    assert found
    assert [f for f in found if f.split()[1].split(".")[0] not in allowed] == []


def test_observation_replay_calls_no_solver():
    # `verify` sets the observation replay beside the solver's verdict, so
    # reduction.py, like gadget.py, may import nothing from teaching.py.
    imported = _imported("reduction")
    assert "model._taught" in imported
    assert [name for name in imported if "teaching" in name.split(".")] == []
