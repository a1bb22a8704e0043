"""Reference route for the x(J, T) defining forms in the tests; nothing in
the library calls it.

``form_for_rows`` expands the minor on every one of the C(N, k)
multiindices along its first row, recursively, which is what
``blockhess.node_cusp._form_for_rows`` did before it enumerated the at most
2**k row choices instead.  It is slow and shares no code with that routine.
"""

from fractions import Fraction

from blockhess.multiindex import enumerate_indices


def sparse_minor(rows, cols):
    """The minor on ``cols`` of rows given as (column, T-exponent) unit
    entries, as (sign, T-exponent) of its one term, or None if it vanishes.
    A second term raises AssertionError."""
    if not rows:
        return 1, 0
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
        term = (-sub[0] if i % 2 else sub[0]), exp + sub[1]
    return term


def form_for_rows(rows, k, N):
    """Every k x k minor of the frame ``rows`` as a {multiindex: {e: +-1}} form."""
    form = {}
    for I in enumerate_indices(k, N):
        m = sparse_minor(rows, I)
        if m is not None:
            form[I] = {m[1]: Fraction(m[0])}
    return form
