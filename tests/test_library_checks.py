"""Library checks must survive ``python -O``, which strips assert statements."""

import ast
from pathlib import Path

import trifold


def test_library_has_no_assert_statements():
    modules = sorted(Path(trifold.__file__).parent.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
