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


def test_no_scipy_import_in_src():
    # netexp's runtime needs numpy only
    files = sorted(SRC.glob("*.py"))
    found = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(name == "scipy" or name.startswith("scipy.") for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert files
    assert found == [], f"scipy import in src/netexp: {', '.join(found)}"
