"""Rules on the library source that the interpreter does not enforce."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "netexp"


def test_no_bare_assert_in_src():
    # `python -O` strips assert statements; invariants raise NetexpError
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"bare assert in src/netexp: {', '.join(found)}"
