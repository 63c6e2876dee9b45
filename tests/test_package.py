"""Every public top-level function or class of cmhier has a caller outside the tests.

The package states each identity once, as an evaluator that a gate or another
part of the program reads; an evaluator only tests call restates an identity
or checks nothing. References are read from the ASTs of the package and of
the benchmark harness: a `Name`, an `Attribute` or an import alias anywhere
except inside the definition itself.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cmhier"

ALLOWED_UNREFERENCED = {
    # the exact lattice sheet: the reference tests/test_exact.py checks computed sheets
    # against, kept as the oracle future lattice gates build on
    ("exact", "lattice_spectrum"),
}


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path.stem, node


def _referenced_names() -> dict:
    """Name -> the top-level definitions (module, name) a reference to it sits in; None at module level."""
    found: dict = {}
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "benchmarks").rglob("*.py"))
    for path in sources:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = (path.stem, top.name) if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
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
    assert unreferenced == ALLOWED_UNREFERENCED

