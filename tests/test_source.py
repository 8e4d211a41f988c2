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
