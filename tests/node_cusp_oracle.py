"""Reference routes for the x(J, T) defining forms in the tests; nothing in
the library calls them.

``form_for_rows`` expands the minor on every one of the C(N, k)
multiindices along its first row, recursively, which is what
``blockhess.node_cusp._form_for_rows`` did before it enumerated the at most
2**k row choices instead.  It is slow and shares no code with that routine.
``halves`` and ``pairing`` read J ∩ If, If \\ J and the replacement pairing
off their definition, one block entry at a time, where ``NodeIndexSet``
builds them once in its constructor.  ``replace`` names the multiindex r(P)
that the frame reaches by swapping the rows in P onto their paired
columns.  ``extra_equations`` are the four sums of the |If ∩ J| = k - 2
case, from their definition.  ``chart_point_at`` is x(J, T) at a numeric
T as a chart point.
"""

from fractions import Fraction

from blockhess.exterior import ChartPoint
from blockhess.multiindex import enumerate_indices, sort_with_sign
from blockhess.node_cusp import build_x_J_T


def chart_point_at(spec):
    """The frame of x(J, T) past its identity columns, as a chart point."""
    k, N = spec.J.k, spec.J.N
    return ChartPoint.from_rows(k, N, [row[k:] for row in build_x_J_T(spec)])


def halves(node):
    """(J ∩ If, If \\ J, J ∩ Il, Il \\ J), each sorted."""
    k, N, J = node.k, node.N, set(node.J)
    first, last = range(1, k + 1), range(N - k + 1, N + 1)
    return (
        tuple(v for v in first if v in J),
        tuple(v for v in first if v not in J),
        tuple(v for v in last if v in J),
        tuple(v for v in last if v not in J),
    )


def pairing(node):
    """r -> s on If, in order 1..k: If ∩ J pairs with Il \\ J in order, and
    If \\ J with Il ∩ J in order."""
    f_in, f_out, l_in, l_out = halves(node)
    assert len(f_in) == len(l_out) and len(f_out) == len(l_in)
    out = {}
    for group, targets in ((f_in, l_out), (f_out, l_in)):
        for i, r in enumerate(group):
            out[r] = targets[i]
    return {r: out[r] for r in range(1, node.k + 1)}


def replace(P, node):
    """r(P): replace each p in P ⊆ If by its pairing target, sort with sign."""
    Pset = set(P)
    If = range(1, node.k + 1)
    if not Pset <= set(If):
        raise ValueError(f"P={sorted(Pset)} not a subset of the first block")
    r = pairing(node)
    return sort_with_sign(tuple(r[p] if p in Pset else p for p in If), node.N)


def extra_equations(node):
    """The four extra equations of the |If ∩ J| = k - 2 case: with
    If \\ J = {t, t'} and J \\ If = {alpha, alpha'}, the sum over j in If ∩ J
    of the coefficient at positions (j, t) holding (r(j), alpha), in the
    order (alpha, t), (alpha', t), (alpha, t'), (alpha', t')."""
    k = node.k
    f_in, f_out, _, _ = halves(node)
    r = pairing(node)
    out = []
    for t in f_out:
        for alpha in (v for v in node.J if v > k):
            form = {}
            for j in f_in:
                raw = list(range(1, k + 1))
                raw[j - 1], raw[t - 1] = r[j], alpha
                I, sign = sort_with_sign(raw, node.N)
                form[I] = form.get(I, Fraction(0)) + sign
                if not form[I]:
                    del form[I]
            out.append(form)
    return out


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
