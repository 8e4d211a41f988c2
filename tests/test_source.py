"""Source-level checks on the library package."""

import ast
import re
from pathlib import Path

import stiefel_lab


def test_library_has_no_assert_statements():
    """Witness checks raise explicitly: `python -O` strips `assert`."""
    found = []
    for path in sorted(Path(stiefel_lab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_library_has_no_unused_imports():
    """Every name a module imports is used in it (the package's only lint)."""
    found = []
    for path in sorted(Path(stiefel_lab.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_library_has_no_unreferenced_private_names():
    """Every `_`-prefixed function, method or attribute that the package
    defines is referenced on some line of the package other than the one
    that defines it."""
    paths = sorted(Path(stiefel_lab.__file__).parent.glob("*.py"))
    lines = [(path.name, number, line) for path in paths
             for number, line in enumerate(path.read_text().splitlines(), start=1)]
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                name = node.attr
            else:
                continue
            if not name.startswith("_") or name.startswith("__"):
                continue
            word = re.compile(rf"\b{name}\b")
            if not any(word.search(line) for where, number, line in lines
                       if (where, number) != (path.name, node.lineno)):
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_tests_have_no_vacuous_asserts():
    """No test asserts a literal `True`, alone or as an operand of `or`."""
    found = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assert):
                continue
            test = node.test
            is_or = isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or)
            operands = test.values if is_or else [test]
            if any(isinstance(v, ast.Constant) and v.value is True for v in operands):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
