"""Reference routes for the x(J, T) defining forms in the tests; nothing in
the library calls them.

``form_for_rows`` expands the minor on every one of the C(N, k)
multiindices along its first row, recursively, which is what
``blockhess.node_cusp._form_for_rows`` did before it enumerated the at most
2**k row choices instead.  It is slow and shares no code with that routine.
``replace`` names the multiindex r(P) that the frame reaches by swapping
the rows in P onto their paired columns.  ``chart_point_at`` is x(J, T) at
a numeric T as a chart point.
"""

from blockhess.exterior import ChartPoint
from blockhess.multiindex import enumerate_indices, first_index, replacement_pairing, sort_with_sign
from blockhess.node_cusp import build_x_J_T


def chart_point_at(spec):
    """The frame of x(J, T) past its identity columns, as a chart point."""
    k, N = spec.J.k, spec.J.N
    return ChartPoint.from_rows(k, N, [row[k:] for row in build_x_J_T(spec)])


def replace(P, node):
    """r(P): replace each p in P ⊆ If by its pairing target, sort with sign."""
    Pset = set(P)
    if not Pset <= set(first_index(node.k, node.N)):
        raise ValueError(f"P={sorted(Pset)} not a subset of the first block")
    pairing = replacement_pairing(node)
    raw = tuple(pairing[p] if p in Pset else p for p in first_index(node.k, node.N))
    return sort_with_sign(raw, node.N)


def sparse_minor(rows, cols):
    """The minor on ``cols`` of rows given as (column, T-exponent) unit
    entries, as (T-exponent, sign) of its one term, or None if it vanishes.
    A second term raises AssertionError."""
    if not rows:
        return 0, 1
    term = None
    for c, exp in rows[0]:
        if c not in cols:
            continue
        i = cols.index(c)
        sub = sparse_minor(rows[1:], cols[:i] + cols[i + 1 :])
        if sub is None:
            continue
        if term is not None:
            raise AssertionError(f"minor on columns {cols} has a second term")
        term = exp + sub[0], (-sub[1] if i % 2 else sub[1])
    return term


def form_for_rows(rows, k, N):
    """Every k x k minor of the frame ``rows`` as a {multiindex: (e, +-1)} form."""
    form = {}
    for I in enumerate_indices(k, N):
        m = sparse_minor(rows, I)
        if m is not None:
            form[I] = m
    return form
