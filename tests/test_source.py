"""Checks on the package source itself."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "smforge"


def test_no_assert_statements():
    # Invariants are explicit raises: asserts vanish under python -O.
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, found
