"""Every public function and method of the package has a caller outside the tests.

A definition counts as reached when it is named anywhere in ``src/``,
``scripts/`` or ``perfbench/``, leaving out its own body (as a recursive
call names it).  A method is reached only through an attribute
(``x.name``) or a string constant that is a dotted name
(``perfbench/tracer.py`` wraps methods by name; prose in docstrings and
messages does not count).  A module-level function ``m.f`` is reached only
through a bare name ``f``, as a use after ``from .m import f``, or through
``f`` qualified by its module (``m.f`` in code or in a dotted string),
never through an attribute ``x.f`` on some other object: ``str.replace``
does not reach a module function called ``replace``.  For methods the
check goes by name, not by type, so it is coarse: any ``.get(...)``
reaches every method called ``get``.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "blockhess"
SEARCHED = ("src", "scripts", "perfbench")

# Kept without a library caller: the reference translation in
# tests/exterior_oracle.py needs ``translate`` and ``substitute``, and
# perfbench/tracer.py wraps ``translate`` and ``exact_divide`` by name
# (``linalg.det_bareiss`` divides on packed monomials directly).
ALLOWED = {"MultiPoly.translate", "MultiPoly.substitute", "MultiPoly.exact_divide"}


def _public_definitions() -> dict[str, tuple[str, bool]]:
    """Qualified name -> (bare name, is a method) of each public function and method."""
    defs: dict[str, tuple[str, bool]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defs[f"{path.stem}.{node.name}"] = (node.name, False)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        defs[f"{node.name}.{item.name}"] = (item.name, True)
    return defs


def _names_used(tree: ast.AST) -> tuple[set[str], set[str], set[tuple[str, str]]]:
    """(bare names, attributes and dotted-string parts, (qualifier, name)
    pairs of attributes and dotted strings) named in ``tree``, leaving out
    each function's own body."""
    bare: set[str] = set()
    attrs: set[str] = set()
    qualified: set[tuple[str, str]] = set()

    def visit(node: ast.AST, inside: frozenset[str]) -> None:
        if isinstance(node, ast.Name) and node.id not in inside:
            bare.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            attrs.add(node.attr)
            owner = node.value
            if isinstance(owner, (ast.Name, ast.Attribute)):
                qualified.add((owner.id if isinstance(owner, ast.Name) else owner.attr, node.attr))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                attrs.update(parts)
                qualified.update(zip(parts, parts[1:]))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return bare, attrs, qualified


def test_every_public_name_has_a_caller_outside_the_tests():
    bare: set[str] = set()
    attrs: set[str] = set()
    qualified: set[tuple[str, str]] = set()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            b, a, q = _names_used(ast.parse(path.read_text(encoding="utf-8")))
            bare |= b
            attrs |= a
            qualified |= q

    def reached(qualname: str, name: str, is_method: bool) -> bool:
        if is_method:
            return name in attrs
        return name in bare or tuple(qualname.split(".")) in qualified

    unreached = sorted(
        q
        for q, (name, is_method) in _public_definitions().items()
        if not reached(q, name, is_method) and q not in ALLOWED
    )
    assert not unreached, f"public names that only tests reach: {unreached}"


def test_the_allowlist_names_real_definitions():
    assert ALLOWED <= set(_public_definitions())
