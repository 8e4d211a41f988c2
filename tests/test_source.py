"""Source-level checks on the library package."""

import ast
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
