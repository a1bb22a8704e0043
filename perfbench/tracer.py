"""Spans around blockhess functions, installed from outside the library.

``Tracer`` replaces every binding of each wrapped function -- the defining
module's attribute, every ``from``-import of it in another ``blockhess``
module, and class attributes such as ``MultiPoly.__radd__`` that alias a
wrapped method -- with a wrapper that records one span per call: a name,
the parent span, start, duration, self time (duration minus the time
covered by child spans) and a work count.  On exit every original is put
back, and both directions are asserted: no binding kept an original while
tracing, and no wrapper survives afterwards.

A call made while the innermost open span has the same name (``det_cofactor``
recursing, or ``det_exact_generic`` handing over to ``det_bareiss``) joins
that span instead of opening a new one, so ``calls`` counts outermost
calls of a layer.

Spans are kept in memory in flat arrays and written out once at the end.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter

LIBRARY_MODULES = (
    "multiindex", "ring", "linalg", "exterior", "hessian",
    "degree", "irreducibility", "node_cusp", "certificates",
)

# Methods wrapped besides the public module-level functions, with the span
# suffix each gets; aliases such as __radd__ share the name.
METHOD_SPANS = {
    ("ring", "MultiPoly"): {
        "__mul__": "mul", "__rmul__": "mul", "__add__": "add", "__radd__": "add",
        "exact_divide": "exact_divide", "translate": "translate",
    },
    ("exterior", "ExteriorArray"): {"__init__": "init"},
}

# Elimination kernels are named by what they eliminate over, not by routine.
LINALG_SPANS = {
    "rank_fraction": "linalg.rank_q",
    "rref_fraction": "linalg.rank_q",
    "rank_mod": "linalg.rank_mod",
    "det_mod": "linalg.det_mod",
}
DET_KERNELS = ("det_cofactor", "det_bareiss", "det_exact_generic")


def _cells(m) -> int:
    return len(m) * len(m[0]) if len(m) else 0


class Spans:
    """Flat, append-only span storage; index = span id, opened in call order."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.dur = array("d")
        self.self_s = array("d")
        self.units = array("q")

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self.name)

    def extend(self, other: "Spans") -> None:
        """Append another run's spans, renumbering ids and names."""
        base = len(self)
        remap = [self.name_id(n) for n in other.names]
        self.name.extend(remap[i] for i in other.name)
        self.parent.extend(p + base if p >= 0 else -1 for p in other.parent)
        for col in ("start", "dur", "self_s", "units"):
            getattr(self, col).extend(getattr(other, col))

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "name": list(self.name),
            "parent": list(self.parent),
            "start": list(self.start),
            "dur": list(self.dur),
            "self_s": list(self.self_s),
            "units": list(self.units),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Spans":
        out = cls()
        for n in doc["names"]:
            out.name_id(n)
        out.name.extend(doc["name"])
        out.parent.extend(doc["parent"])
        for col, code in (("start", "d"), ("dur", "d"), ("self_s", "d"), ("units", "q")):
            setattr(out, col, array(code, doc[col]))
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="ascii") as fh:
            json.dump(self.to_json(), fh, separators=(",", ":"))

    @classmethod
    def read(cls, path) -> "Spans":
        with gzip.open(path, "rt", encoding="ascii") as fh:
            return cls.from_json(json.load(fh))


class Tracer:
    """Context manager that wraps the library while it is active."""

    def __init__(self) -> None:
        self.spans = Spans()
        self._stack: list[list] = []  # [span id, name id, wrapped original, child seconds]
        self._wrapped: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
        self._patched: list[tuple[object, str, object]] = []  # (owner, attribute, original)

    # -- span recording ------------------------------------------------------

    def _call(self, fn, nid: int, units: int, args, kwargs):
        stack = self._stack
        if stack and stack[-1][1] == nid:
            return fn(*args, **kwargs)
        sp = self.spans
        sid = len(sp.name)
        sp.name.append(nid)
        sp.parent.append(stack[-1][0] if stack else -1)
        sp.dur.append(0.0)
        sp.self_s.append(0.0)
        sp.units.append(units)
        frame = [sid, nid, fn, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        sp.start.append(t0)
        try:
            return fn(*args, **kwargs)
        finally:
            d = perf_counter() - t0
            stack.pop()
            sp.dur[sid] = d
            sp.self_s[sid] = d - frame[3]
            if stack:
                stack[-1][3] += d

    def _make_wrapper(self, fn, span: str):
        nid = self.spans.name_id(span)
        call = self._call

        if span in ("linalg.rank_q", "linalg.det_mod"):
            def wrapper(*args, **kwargs):
                return call(fn, nid, _cells(args[0]), args, kwargs)
        elif span == "ring.MultiPoly.mul":
            def wrapper(*args, **kwargs):
                a, b = args[0], args[1]
                pairs = len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)
                return call(fn, nid, pairs, args, kwargs)
        elif span == "linalg.det":
            z_id = self.spans.name_id("linalg.det_z")
            poly_id = self.spans.name_id("linalg.det_poly")
            stack = self._stack

            def wrapper(*args, **kwargs):
                if stack and stack[-1][2] is fn:  # recursion joins the open span
                    return fn(*args, **kwargs)
                m = args[0]
                poly = any(hasattr(e, "terms") for row in m for e in row)
                return call(fn, poly_id if poly else z_id, _cells(m), args, kwargs)
        elif span == "node_cusp.verify_node_pair_k3":
            sp = self.spans

            def wrapper(*args, **kwargs):
                sid = len(sp.name)
                report = call(fn, nid, 0, args, kwargs)
                sp.units[sid] += report.get("completion_seed") or 0  # retries past seed 0
                return report
        else:
            def wrapper(*args, **kwargs):
                return call(fn, nid, 0, args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(fn, "__qualname__", "wrapper")
        return wrapper

    # -- installation --------------------------------------------------------

    def _targets(self):
        """(original, span name) for every function and method to wrap."""
        for short in LIBRARY_MODULES:
            mod = importlib.import_module(f"blockhess.{short}")
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if short == "linalg" and name in DET_KERNELS:
                    yield obj, "linalg.det"
                elif short == "linalg" and name in LINALG_SPANS:
                    yield obj, LINALG_SPANS[name]
                else:
                    yield obj, f"{short}.{name}"
            for (owner_mod, cls_name), methods in METHOD_SPANS.items():
                if owner_mod == short:
                    cls = getattr(mod, cls_name)
                    for attr, suffix in methods.items():
                        yield vars(cls)[attr], f"{short}.{cls_name}.{suffix}"

    def _namespaces(self):
        """Every dict that can hold a binding: the modules and their classes."""
        mods = [m for n, m in sorted(sys.modules.items()) if n == "blockhess" or n.startswith("blockhess.")]
        for mod in mods:
            yield mod, vars(mod)
            for obj in list(vars(mod).values()):
                if inspect.isclass(obj) and obj.__module__.startswith("blockhess"):
                    yield obj, vars(obj)

    def __enter__(self) -> "Tracer":
        for fn, span in self._targets():
            if id(fn) not in self._wrapped:
                self._wrapped[id(fn)] = (fn, self._make_wrapper(fn, span))
        seen = set()
        for owner, ns in self._namespaces():
            if id(owner) in seen:
                continue
            seen.add(id(owner))
            for attr, value in list(ns.items()):
                hit = self._wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(owner, attr, hit[1])
                    self._patched.append((owner, attr, value))
        escaped = self._find(lambda v: self._wrapped.get(id(v), (None,))[0] is v)
        if escaped:
            self._restore()
            raise RuntimeError(f"bindings escaped the tracer: {escaped}")
        return self

    def __exit__(self, *exc) -> None:
        self._restore()
        wrappers = {id(w) for _, w in self._wrapped.values()}
        left = self._find(lambda v: id(v) in wrappers)
        if left:
            raise RuntimeError(f"wrappers left installed after tracing: {left}")

    def _restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _find(self, pred) -> list[str]:
        """Names of bindings matching pred, also one level inside containers."""
        found = []
        for owner, ns in self._namespaces():
            label = getattr(owner, "__name__", repr(owner))
            for attr, value in list(ns.items()):
                values = [value]
                if isinstance(value, dict):
                    values += list(value.values())
                elif isinstance(value, (list, tuple)):
                    values += list(value)
                if any(pred(v) for v in values if callable(v)):
                    found.append(f"{label}.{attr}")
        return found
