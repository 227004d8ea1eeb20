"""Rules on the library source that the interpreter does not enforce."""
import ast
from pathlib import Path

import netexp

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "netexp"


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


def _names_used(node) -> set:
    """Identifiers a piece of code refers to: names, attribute names, and
    string constants that are identifiers (the benchmark's tracer names the
    functions it wraps as strings)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            names.add(sub.value)
    return names


def test_every_src_definition_is_reached():
    # Roots: the CLI, the benchmark and the public names.  Every top-level
    # function and class in src/netexp must be reached from them by name, so
    # code that only tests call lives under tests/.
    defs = {}  # name -> [(file name, node)]
    roots = set(netexp.__all__)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if path.name == "cli.py":
            roots |= _names_used(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if path.name != "errors.py":
                    defs.setdefault(node.name, []).append((path.name, node))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _names_used(node)  # module-level code runs at import
    bench = sorted((ROOT / "perfbench").glob("*.py"))
    assert bench and defs
    for path in bench:
        roots |= _names_used(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))

    reached = set()
    todo = [name for name in roots if name in defs]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for _, node in defs[name]:
            todo += [used for used in _names_used(node) if used in defs and used not in reached]
    missed = sorted(f"{fname}:{name}" for name, found in defs.items() if name not in reached
                    for fname, _ in found)
    assert missed == [], f"src/netexp definitions reached only from tests: {', '.join(missed)}"
