"""Every public top-level function or class of cmhier has a caller outside the tests,
and every defaulted parameter of a public top-level function is passed by one.

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


def test_every_defaulted_parameter_is_passed_by_a_caller():
    calls: dict = {}
    for owner, node in _nodes_by_owner():
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            calls.setdefault(name, []).append((owner, node))
    never_passed = set()
    for module, node in _public_definitions():
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        passed = set()
        for owner, call in calls.get(node.name, []):
            if owner != (module, node.name):  # a call inside the definition itself does not count
                passed |= _passed_parameters(call, args)
        never_passed |= {(module, node.name, name) for name in defaulted if name not in passed}
    assert never_passed == set()
