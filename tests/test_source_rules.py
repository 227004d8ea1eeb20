"""Rules on the library source that the interpreter does not enforce."""
import ast
from pathlib import Path

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


def _math_exp_uses(tree) -> list:
    """Lines that call for ``math.exp``: ``from math import exp`` and
    ``math.exp`` (also under an ``import math as m`` alias)."""
    modules = {"math"} | {alias.asname for node in ast.walk(tree) if isinstance(node, ast.Import)
                          for alias in node.names if alias.name == "math" and alias.asname}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "math" and node.level == 0:
            if any(alias.name == "exp" for alias in node.names):
                found.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr == "exp"
              and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(node.lineno)
    return found


def test_no_math_exp_in_src():
    # Every exp in src/netexp is numpy's: math.exp rounds differently in
    # the last bit for some arguments, so mixing the two would change
    # reported divergences.
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{line}"
        for path in files
        for line in _math_exp_uses(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    ]
    assert found == [], f"math.exp in src/netexp: {', '.join(found)}"


def test_math_exp_rule_catches_each_form():
    src = (
        "import math\nimport math as m\nimport numpy as np\nfrom math import exp\n"
        "from math import log, exp as e\n"
        "a = math.exp(1.0)\nb = m.exp(1.0)\nc = np.exp(1.0)\nd = math.expm1(1.0)\n"
        "f = math.exp\n"
    )
    assert sorted(_math_exp_uses(ast.parse(src))) == [4, 5, 6, 7, 10]


def _builtin_sum_uses(tree) -> list:
    """Lines that reach the builtin ``sum``: the bare name (called or
    passed on), ``builtins.sum`` and ``from builtins import sum``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "sum" and isinstance(node.ctx, ast.Load):
            found.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr == "sum"
              and isinstance(node.value, ast.Name) and node.value.id == "builtins"):
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "builtins":
            if any(alias.name == "sum" for alias in node.names):
                found.append(node.lineno)
    return found


def test_no_builtin_sum_in_channel():
    # channel._probe sums fewer than 8 floats left to right, the order in
    # which np.add.reduce adds them, and flow's sentinel, cut sizes and
    # path budgets add capacities left to right.  Since Python 3.12 the
    # builtin sum of floats is compensated, so a sum(...) there would pass
    # on 3.11 and change reported numbers on newer interpreters.
    found = [
        f"{name}:{line}"
        for name in ("channel.py", "flow.py")
        for line in _builtin_sum_uses(ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name))
    ]
    assert found == [], f"builtin sum in src/netexp: {', '.join(found)}"


def test_builtin_sum_rule_catches_each_form():
    src = (
        "import builtins\nimport numpy as np\nfrom builtins import sum\n"
        "a = sum([1.0, 2.0])\nb = builtins.sum([1.0])\nc = np.sum([1.0])\nd = x.sum()\n"
        "e = list(map(sum, [[1.0]]))\nf = np.add.reduce([1.0])\nsum = 0.0\n"
    )
    assert sorted(_builtin_sum_uses(ast.parse(src))) == [3, 4, 5, 8]


CACHE_DECORATORS = ("cache", "lru_cache", "cached_property")
MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def _cross_call_state(tree) -> list:
    """Lines that can keep state from one call to the next: a functools
    cache decorator anywhere, or a module-level dict, list or set."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if name in CACHE_DECORATORS:
                    found.append((dec.lineno, f"@{name}"))
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            continue
        mutable = isinstance(value, MUTABLE_DISPLAYS) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("dict", "list", "set")
        )
        if mutable:
            found.append((node.lineno, "module-level container"))
    return found


def test_no_cross_call_state_in_src():
    # Tables (the relays' decision table among them) live for one call, so
    # output cannot depend on what ran before or on NETEXP_THREADS.
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{line} {what}"
        for path in files
        for line, what in _cross_call_state(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    ]
    assert found == [], f"state kept across calls in src/netexp: {', '.join(found)}"


def test_cross_call_state_rule_catches_each_form():
    src = (
        "import functools\nfrom functools import lru_cache, cache\n"
        "__all__ = [n for n in dir()]\n"
        "A = {}\nB: list = []\nC = set()\nD = dict(a=1)\nE = {k: 1 for k in 'ab'}\n"
        "F = (1, 2)\nG = frozenset()\n"
        "@functools.lru_cache(maxsize=None)\ndef f(): pass\n"
        "@cache\ndef g(): pass\n"
        "class K:\n    @functools.cached_property\n    def h(self): pass\n"
        "def k():\n    local = []\n    return local\n"
    )
    lines = [line for line, _ in _cross_call_state(ast.parse(src))]
    assert sorted(lines) == [4, 5, 6, 7, 8, 11, 13, 16]


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


def _is_all(node) -> bool:
    """An assignment to ``__all__``: it names exports, not uses."""
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _unreached(modules: dict, roots_code: list) -> list:
    """``file:name`` of every top-level function and class in ``modules``
    (file name -> source) that no root reaches by name.  Roots are the names
    that ``roots_code`` (sources outside the package), ``cli.py`` and the
    modules' import-time code use; imports and ``__all__`` are no roots, so
    exporting a name does not keep it alive.  An error type counts as
    reached only where reached code raises or catches it (or subclasses
    it)."""
    defs = {}  # name -> [file name]
    roots = set()
    for fname, text in modules.items():
        tree = ast.parse(text, filename=fname)
        if fname == "cli.py":
            roots |= _names_used(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((fname, node))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)) and not _is_all(node):
                roots |= _names_used(node)  # module-level code runs at import
    for text in roots_code:
        roots |= _names_used(ast.parse(text))

    reached = set()
    todo = [name for name in roots if name in defs]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for _, node in defs[name]:
            todo += [used for used in _names_used(node) if used in defs and used not in reached]
    return sorted(f"{fname}:{name}" for name, found in defs.items() if name not in reached
                  for fname, _ in found)


def test_every_src_definition_is_reached():
    # Roots: the CLI and the benchmark.  Every top-level function and class
    # in src/netexp must be reached from them by name, so code that only
    # tests call lives under tests/.
    modules = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    bench = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "perfbench").glob("*.py"))]
    assert "cli.py" in modules and bench
    missed = _unreached(modules, bench)
    assert missed == [], f"src/netexp definitions reached only from tests: {', '.join(missed)}"


def test_reachability_rule_reports_an_export_nothing_calls():
    modules = {
        "__init__.py": (
            "from .core import exported, run\n"
            "__all__ = ['exported', 'run']\n"
            "__all__ += [n for n in dir() if not n.startswith('_')]\n"
        ),
        "core.py": (
            "from .errors import Raised, Unraised\n\n"
            "def run():\n    return helper()\n\n"
            "def helper():\n    raise Raised('no')\n\n"
            "def exported():\n    return helper()\n\n"
            "class Traced:\n    pass\n"
        ),
        "cli.py": (
            "from .core import run\nfrom .errors import NetexpError\n\n"
            "def main():\n    try:\n        return run()\n    except NetexpError:\n        return 2\n\n"
            "if __name__ == '__main__':\n    main()\n"
        ),
        "errors.py": (
            "class NetexpError(Exception):\n    pass\n\n"
            "class Raised(NetexpError):\n    pass\n\n"
            "class Unraised(NetexpError):\n    pass\n"
        ),
    }
    assert _unreached(modules, []) == ["core.py:Traced", "core.py:exported", "errors.py:Unraised"]
    # the benchmark names what its tracer wraps as strings
    assert _unreached(modules, ["STAGES = (('stage', 'core', ('Traced',)),)\n"]) == [
        "core.py:exported", "errors.py:Unraised"]


def _constant(node, name, default=None):
    """The constant that keyword ``name`` of call ``node`` passes."""
    kw = {k.arg: k.value for k in node.keywords} if isinstance(node, ast.Call) else {}
    return kw[name].value if isinstance(kw.get(name), ast.Constant) else default


def _dataclass_defaults(node) -> list:
    """(class name, field, position) of every field default of ``node``,
    a class, when a ``dataclass`` decorator makes them ``__init__``
    parameter defaults.  ``position`` counts the fields before it that
    ``__init__`` takes positionally, None for a keyword-only field; a
    ``field(init=False)`` is no parameter."""
    if not any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in node.decorator_list):
        return []
    found, pos = [], 0
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        value = stmt.value
        spec = value if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field" else None
        if not _constant(spec, "init", True):
            continue
        if spec is None:
            has_default = value is not None
        else:
            has_default = any(k.arg in ("default", "default_factory") for k in spec.keywords)
        kw_only = _constant(spec, "kw_only", False)
        if has_default:
            found.append((node.name, stmt.target.id, None if kw_only else pos))
        pos += not kw_only
    return found


def _function_defaults(tree) -> list:
    """(function name, parameter, position) of every parameter default in
    ``tree``, nested functions and methods included, and (class name,
    field, position) of every dataclass field default.  ``position`` is
    the parameter's index among the positional arguments a call passes (a
    method's ``self`` or ``cls`` is not passed), None for keyword-only."""
    found = []

    def visit(node, in_class):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = sub.args
                positional = args.posonlyargs + args.args
                bound = in_class and not any(getattr(d, "id", None) == "staticmethod"
                                             for d in sub.decorator_list)
                first = len(positional) - len(args.defaults)
                found.extend((sub.name, a.arg, i - bound)
                             for i, a in enumerate(positional) if i >= first)
                found.extend((sub.name, a.arg, None)
                             for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
            elif isinstance(sub, ast.ClassDef):
                found.extend(_dataclass_defaults(sub))
            visit(sub, isinstance(sub, ast.ClassDef))

    visit(tree, False)
    return found


PACKAGE = "netexp"


def _bindings(tree, fname: str, modules: dict) -> dict:
    """What the names of file ``fname`` bind: (file, name) for a function or
    class that the file defines at top level or imports from the package
    ``modules`` (file name -> source), (file, None) for a package module,
    and None for whatever comes from outside the package."""
    binds = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if node.level == 1:
                sub = mod
            elif node.level == 0 and (mod == PACKAGE or mod.startswith(PACKAGE + ".")):
                sub = mod[len(PACKAGE) + 1 :]
            else:
                sub = None
            for alias in node.names:
                if sub is None:
                    target = None
                elif not sub and f"{alias.name}.py" in modules:
                    target = (f"{alias.name}.py", None)
                else:
                    target = (f"{sub}.py" if sub else "__init__.py", alias.name)
                binds[alias.asname or alias.name] = target
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                target = None
                if parts[0] == PACKAGE:
                    target = (f"{parts[1]}.py" if alias.asname and len(parts) > 1 else "__init__.py", None)
                binds[alias.asname or parts[0]] = target
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            binds[node.name] = (fname, node.name)
    return binds


def _follow(target, binds: dict):
    """``target`` traced through the re-exports of the files in ``binds``
    to the file that defines it."""
    for _ in range(len(binds) + 1):
        if target is None or target[1] is None or target[0] not in binds:
            break
        nxt = binds[target[0]].get(target[1], target)
        if nxt == target:
            break
        target = nxt
    return target


def _resolve(expr, fname: str, binds: dict):
    """What ``expr``, a name or an attribute in file ``fname``, refers to:
    (file, name) for a package function or class, (file, None) for a
    package module, None for anything from outside the package, and False
    for any other object."""
    if isinstance(expr, ast.Name):
        return _follow(binds[fname][expr.id], binds) if expr.id in binds[fname] else False
    if isinstance(expr, ast.Attribute):
        owner = _resolve(expr.value, fname, binds)
        if owner and owner[1] is None:
            return _follow((owner[0], expr.attr), binds)
        return None if owner is None else False
    return False


def _call_target(func, fname: str, binds: dict):
    """The (file, name) of the definition that a call's function refers to
    in file ``fname`` (see :func:`_resolve`), or ("", name), matched by
    name, for a name that the file neither defines nor imports and for a
    method of any other object."""
    target = _resolve(func, fname, binds)
    if target is False:
        return ("", func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return target


def _unsplit_defaults(modules: dict, roots_code: list) -> list:
    """``file:function.parameter`` of every parameter default in ``modules``
    (file name -> source), dataclass fields included, that the calls in
    ``modules`` and ``roots_code`` never omit, so it can be a required
    argument, or never pass, so it is dead.  A call ``f(...)`` or
    ``module.f(...)`` counts for the function that ``f`` resolves to
    through the calling file's own definitions and imports; a call of a
    name the file neither defines nor imports, or of a method of any other
    object, counts for every function of that name.  A call with ``*`` or
    ``**`` arguments is left out, since it cannot tell which parameters it
    fills."""
    files = dict(modules) | {f"<root {i}>": text for i, text in enumerate(roots_code)}
    trees = {fname: ast.parse(text, filename=fname) for fname, text in files.items()}
    binds = {fname: _bindings(tree, fname, modules) for fname, tree in trees.items()}
    calls = [(_call_target(node.func, fname, binds), node) for fname, tree in trees.items()
             for node in ast.walk(tree) if isinstance(node, ast.Call)
             and not any(isinstance(a, ast.Starred) for a in node.args)
             and all(k.arg is not None for k in node.keywords)]
    missed = []
    for fname in modules:
        for func, param, pos in _function_defaults(trees[fname]):
            passed = omitted = False
            for target, call in calls:
                if target not in ((fname, func), ("", func)):
                    continue
                given = (pos is not None and len(call.args) > pos) or any(
                    k.arg == param for k in call.keywords)
                passed, omitted = passed or given, omitted or not given
            if not (passed and omitted):
                missed.append(f"{fname}:{func}.{param}")
    return sorted(missed)


def test_every_src_default_is_both_omitted_and_passed():
    # Same roots as the reachability rule.  A default that every call
    # passes is a recompute fork that only tests take; one that no call
    # passes is a knob nothing turns.
    modules = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    bench = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "perfbench").glob("*.py"))]
    assert "cli.py" in modules and bench
    missed = _unsplit_defaults(modules, bench)
    assert missed == [], f"src/netexp defaults that calls never omit or never pass: {', '.join(missed)}"


def test_default_rule_reports_forks_and_unused_knobs():
    modules = {
        "core.py": (
            "def solve(net, flow=None):\n    return flow\n\n"
            "def scale(x, factor=2.0, *, clip=None, mode='a'):\n    return x\n\n"
            "class Plan:\n"
            "    def blocks(self, n, window=1):\n        return n\n\n"
            "    @staticmethod\n    def make(n, rows=4):\n        return n\n\n"
            "def run(p):\n"
            "    solve(1, 2)\n    solve(1, flow=2)\n    solve(1, **p)\n"
            "    scale(1)\n    scale(1, 3.0, mode='b')\n    scale(*p, clip=1)\n"
            "    p.blocks(5)\n    p.blocks(5, 2)\n"
            "    Plan.make(1)\n    Plan.make(1, 2)\n"
            "    def inner(k=0):\n        return k\n"
            "    return inner()\n"
        ),
    }
    # solve always gets flow but from a ** call; clip is only passed by a
    # starred call; inner is never passed k.  A method's self is not a passed position, a
    # static method has none.
    assert _unsplit_defaults(modules, []) == ["core.py:inner.k", "core.py:scale.clip", "core.py:solve.flow"]
    # a root outside the package passes what the package never does
    assert _unsplit_defaults(modules, ["scale(2, clip=0)\ninner(1)\n"]) == ["core.py:solve.flow"]


def test_default_rule_reads_dataclass_fields():
    modules = {
        "core.py": (
            "from dataclasses import dataclass, field\n\n"
            "@dataclass(frozen=True)\nclass Result:\n"
            "    value: float\n    s: float = 0.5\n    tag: str = 'x'\n"
            "    half: float = field(kw_only=True)\n    note: str = field(default='', kw_only=True)\n"
            "    rows: list = field(default_factory=list)\n    cache: dict = field(init=False, default=None)\n\n"
            "@dataclass\nclass Config:\n    seed: int\n    mode: str = 'exact'\n\n"
            "class Plain:\n    size: int = 3\n\n"
            "def run():\n"
            "    Result(1.0, 0.2, half=0.0)\n    Result(1.0, s=0.3, tag='y', half=0.0, note='n')\n"
            "    Config(seed=1, mode='a')\n    Config(seed=2, mode='b')\n"
            "    return Plain()\n"
        ),
    }
    # every call passes s and mode, none passes rows; init=False fields and
    # classes that are no dataclass have no parameters
    assert _unsplit_defaults(modules, []) == ["core.py:Config.mode", "core.py:Result.rows", "core.py:Result.s"]
    # the fourth positional argument is rows: the keyword-only half and
    # note take no position
    assert _unsplit_defaults(modules, ["Result(2.0)\nResult(2.0, 0.1, 'z', [], half=1.0)\nConfig(seed=3)\n"]) == []


def test_default_rule_resolves_calls_through_imports():
    # two modules each define main: a call counts for the main its own file
    # defines or imports, not for every main
    modules = {
        "cli.py": (
            "import sys\n\n"
            "def main(argv=None):\n    return argv\n\n"
            "if __name__ == '__main__':\n    sys.exit(main())\n"
        ),
        "report.py": (
            "def main(rows, verbose=False):\n    return rows\n\n"
            "def run(rows):\n    return main(rows, verbose=True)\n"
        ),
    }
    tool = "import sys\n\ndef main(argv):\n    return argv\n\nmain(sys.argv[1:])\n"
    # matched by name, each main's calls would both pass and omit
    assert _unsplit_defaults(modules, [tool]) == ["cli.py:main.argv", "report.py:main.verbose"]
    # a package module's attribute, and an imported name under an alias
    bench = ("from netexp import cli\nfrom netexp.report import main as report\n\n"
             "cli.main(['-h'])\nreport([1])\n")
    assert _unsplit_defaults(modules, [tool, bench]) == []
