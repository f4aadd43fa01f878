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


def test_documents_go_through_dumps_canonical():
    # json.dump and json.dumps would bypass the canonical emitter.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("dump", "dumps")
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "json"):
                found.append(f"{path.name}:{node.lineno}")
            if (isinstance(node, ast.ImportFrom) and node.module == "json"
                    and any(a.name in ("dump", "dumps") for a in node.names)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
