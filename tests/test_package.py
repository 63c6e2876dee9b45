"""Every public top-level function or class of cmhier has a caller outside the tests,
and every defaulted parameter of a public top-level function, and every defaulted
field of a public dataclass, is passed by one.

The package states each identity once, as an evaluator that a gate or another
part of the program reads; an evaluator only tests call restates an identity
or checks nothing. A parameter no caller passes has one value in use, so it is
a constant. References and calls are read from the ASTs of the package and of
the benchmark harness, anywhere except inside the definition itself.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cmhier"

SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "benchmarks").rglob("*.py"))


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path.stem, node


def _nodes_by_owner():
    """(owner, node) for every AST node of the sources; the owner is the top-level definition
    (module, name) the node sits in, None at module level."""
    for path in SOURCES:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = (path.stem, top.name) if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                yield owner, node


def _referenced_names() -> dict:
    """Name -> the top-level definitions (module, name) a reference to it sits in; None at module level."""
    found: dict = {}
    for owner, node in _nodes_by_owner():
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        found.setdefault(name, set()).add(owner)
    return found


def test_every_public_definition_has_a_caller():
    found = _referenced_names()
    unreferenced = {
        (module, node.name)
        for module, node in _public_definitions()
        if not found.get(node.name, set()) - {(module, node.name)}
    }
    assert unreferenced == set()


def _passed_parameters(call: ast.Call, args: ast.arguments) -> set:
    """Parameter names a call passes; a starred argument may pass any positional parameter,
    a double-starred one any parameter."""
    positional = [a.arg for a in args.posonlyargs + args.args]
    starred = any(isinstance(arg, ast.Starred) for arg in call.args)
    passed = set(positional if starred else positional[: len(call.args)])
    for keyword in call.keywords:
        passed |= {keyword.arg} if keyword.arg else {*positional, *(a.arg for a in args.kwonlyargs)}
    return passed


def _parameters(node) -> ast.arguments | None:
    """The parameters a call of the definition passes: a function's own, a dataclass's fields in order, as
    positional-or-keyword parameters, the defaulted ones last; None for any other class."""
    if isinstance(node, ast.FunctionDef):
        return node.args
    if not any("dataclass" in ast.unparse(decorator) for decorator in node.decorator_list):
        return None
    fields = [item for item in node.body if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
              and "ClassVar" not in ast.unparse(item.annotation)]
    return ast.arguments(posonlyargs=[], args=[ast.arg(item.target.id) for item in fields], kwonlyargs=[],
                         kw_defaults=[], defaults=[item.value for item in fields if item.value is not None])


def test_every_defaulted_parameter_is_passed_by_a_caller():
    calls: dict = {}
    for owner, node in _nodes_by_owner():
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            calls.setdefault(name, []).append((owner, node))
    never_passed = set()
    for module, node in _public_definitions():
        args = _parameters(node)
        if args is None:
            continue
        positional = [a.arg for a in args.posonlyargs + args.args]
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        passed = set()
        for owner, call in calls.get(node.name, []):
            if owner != (module, node.name):  # a call inside the definition itself does not count
                passed |= _passed_parameters(call, args)
        never_passed |= {(module, node.name, name) for name in defaulted if name not in passed}
    assert never_passed == set()


def _private_numpy_names(source: str) -> set:
    """The private numpy names a module's source imports or reads: any dotted component after `numpy` or
    `np` that starts with one underscore, in an import, a from-import or an attribute chain (`__version__`
    and other dunders are public)."""
    def private(parts):
        return [part for part in parts if part.startswith("_") and not part.endswith("__")]

    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    found.update(private(alias.name.split(".")))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            found.update(private(node.module.split(".") + [alias.name for alias in node.names]))
        elif isinstance(node, ast.Attribute):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in ("np", "numpy"):
                found.update(private(chain))
    return found


def test_only_numerics_names_private_numpy():
    """numerics calls LAPACK's dgesv gufunc directly, a private numpy name; no other module may, so a numpy
    release that moves it breaks one module, at import."""
    named = {path.relative_to(ROOT).as_posix(): _private_numpy_names(path.read_text(encoding="utf-8"))
             for path in SOURCES + sorted((ROOT / "tests").glob("*.py"))}
    assert [path for path, names in named.items() if names] == ["src/cmhier/numerics.py"]
    assert len(named["src/cmhier/numerics.py"]) == 1  # the module that holds the dgesv gufunc


def test_private_numpy_names_are_found():
    assert _private_numpy_names("from numpy.linalg import _linalg as k") == {"_linalg"}
    assert _private_numpy_names("from numpy._core import umath") == {"_core"}
    assert _private_numpy_names("import numpy._core.umath as u") == {"_core"}
    assert _private_numpy_names("import numpy as np\nnp.linalg._linalg._commonType") == {"_linalg", "_commonType"}
    assert _private_numpy_names("import numpy as np\nnp.__version__, np.linalg.solve, other._private") == set()
