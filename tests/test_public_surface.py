"""Every public function and method of the package has a caller outside the tests.

A definition counts as reached when it is named anywhere in ``src/``,
``scripts/`` or ``perfbench/``, leaving out its own body (as a recursive
call names it).  A method is reached only through an attribute
(``x.name``) or a string constant that is exactly its name (the keys of
``perfbench/tracer.py``'s wrap tables name methods that way).  Dotted
strings never count: the metric names in ``perfbench/layers.py``
(``"ring.MultiPoly.mul.self_s"``) name what is measured, not a caller, and
prose in docstrings and messages does not count either.  A module-level
function ``m.f`` is reached only through a bare name ``f``, as a use after
``from .m import f``, or through an attribute ``f`` on the name ``m``, never
through an attribute ``x.f`` on some other object: ``str.replace`` does not
reach a module function called ``replace``.  For methods the check goes by
name, not by type, so it is coarse: any ``.get(...)`` reaches every method
called ``get``.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "blockhess"
SEARCHED = ("src", "scripts", "perfbench")

# Public names kept without a caller outside the tests.  None is needed:
# ``MultiPoly.translate`` and ``exact_divide`` have no library caller, but
# perfbench/tracer.py wraps both by name, and ``translate`` calls ``substitute``.
ALLOWED: set[str] = set()


def _public_definitions(sources: dict[str, str]) -> dict[str, tuple[str, bool]]:
    """Qualified name -> (bare name, is a method) of each public function and
    method, from module stem -> source text."""
    defs: dict[str, tuple[str, bool]] = {}
    for stem, text in sorted(sources.items()):
        for node in ast.parse(text).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defs[f"{stem}.{node.name}"] = (node.name, False)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        defs[f"{node.name}.{item.name}"] = (item.name, True)
    return defs


def _names_used(tree: ast.AST) -> tuple[set[str], set[str], set[tuple[str, str]]]:
    """(bare names, attributes and identifier strings, (qualifier, name)
    pairs of attributes) named in ``tree``, leaving out each function's own body."""
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
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            attrs.add(node.value)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return bare, attrs, qualified


def _unreached(package: dict[str, str], searched: list[str]) -> list[str]:
    """Public definitions in ``package`` (module stem -> source) that no
    source in ``searched`` names."""
    bare: set[str] = set()
    attrs: set[str] = set()
    qualified: set[tuple[str, str]] = set()
    for text in searched:
        b, a, q = _names_used(ast.parse(text))
        bare |= b
        attrs |= a
        qualified |= q

    def reached(qualname: str, name: str, is_method: bool) -> bool:
        if is_method:
            return name in attrs
        return name in bare or tuple(qualname.split(".")) in qualified

    return sorted(q for q, (name, is_method) in _public_definitions(package).items() if not reached(q, name, is_method))


def _package_sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}


def test_every_public_name_has_a_caller_outside_the_tests():
    searched = [path.read_text(encoding="utf-8") for top in SEARCHED for path in sorted((ROOT / top).rglob("*.py"))]
    unreached = [q for q in _unreached(_package_sources(), searched) if q not in ALLOWED]
    assert not unreached, f"public names that only tests reach: {unreached}"


def test_a_metric_name_is_not_a_caller():
    package = {"ring": "class MultiPoly:\n    def wrapped(self): pass\n    def measured(self): pass\n"}
    tracer = 'METHOD_SPANS = {("ring", "MultiPoly"): {"wrapped": "wrapped"}}'
    layers = 'METRICS = ("ring.MultiPoly.measured.self_s", "ring.MultiPoly.measured.calls")'
    assert _unreached(package, [tracer, layers]) == ["MultiPoly.measured"]


def test_the_allowlist_names_real_definitions():
    assert ALLOWED <= set(_public_definitions(_package_sources()))
