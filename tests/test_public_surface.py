"""Every public function and method of the package has a caller outside the tests.

A name counts as reached when it is named anywhere in ``src/``, ``scripts/``
or ``perfbench/``: as an identifier, an attribute, or a string constant that
is a dotted name (``perfbench/tracer.py`` wraps functions by name; prose in
docstrings and messages does not count).  Naming inside the function's own
body, as a recursive call does, does not count.  The check goes by name,
not by type, so it is coarse: any ``.get(...)`` reaches every method called
``get``.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "blockhess"
SEARCHED = ("src", "scripts", "perfbench")

# Kept without a library caller: the reference translation in
# tests/exterior_oracle.py needs them, and perfbench/tracer.py wraps
# ``translate`` by name.
ALLOWED = {"MultiPoly.translate", "MultiPoly.substitute", "MultiPoly.coefficient"}


def _public_definitions() -> dict[str, str]:
    """Qualified name -> bare name of each public function and method."""
    defs: dict[str, str] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defs[f"{path.stem}.{node.name}"] = node.name
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        defs[f"{node.name}.{item.name}"] = item.name
    return defs


def _names_used(tree: ast.AST) -> set[str]:
    """Identifiers named in ``tree``, leaving out each function's own body."""
    used: set[str] = set()

    def visit(node: ast.AST, inside: frozenset[str]) -> None:
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                used.update(parts)
        if name is not None and name not in inside:
            used.add(name)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return used


def test_every_public_name_has_a_caller_outside_the_tests():
    used: set[str] = set()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            used |= _names_used(ast.parse(path.read_text(encoding="utf-8")))
    unreached = sorted(q for q, name in _public_definitions().items() if name not in used and q not in ALLOWED)
    assert not unreached, f"public names that only tests reach: {unreached}"


def test_the_allowlist_names_real_definitions():
    assert ALLOWED <= set(_public_definitions())
