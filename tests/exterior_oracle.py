"""Reference routes for coefficient arrays in the tests; nothing in the
library calls them.

``checked_coeffs`` is the key-by-key check that ``ExteriorArray`` falls
back to when its all-keys-at-once check fails.

``act_translation`` expands the chart form F(A, x) as a polynomial, shifts
it to F(A, X + y) with ``MultiPoly.translate`` and reads each coefficient
back off its squarefree monomial.  It is slow and shares no code with the
Cauchy-Binet kernel in ``blockhess.exterior`` that it checks.
"""

from blockhess.exterior import ExteriorArray, dehomogenized_polynomial, var_index
from blockhess.multiindex import enumerate_indices, first_index, is_valid_index, sort_with_sign


def checked_coeffs(k, N, coeffs):
    """The nonzero entries of ``coeffs`` on plain-tuple keys, checked one key
    at a time; the first key that is not a sorted multiindex raises."""
    out = {}
    for I, c in coeffs.items():
        I = tuple(I)
        if not is_valid_index(I, k, N):
            raise ValueError(f"key {I} is not a sorted multiindex for (k,N)=({k},{N})")
        if c != 0:
            out[I] = c
    return out


def act_translation(A, X):
    """The array whose chart form is F(A, X + y), by polynomial shift."""
    k, N = A.k, A.N
    poly = dehomogenized_polynomial(A)
    point = [X.entry(p, t) for p in range(1, k + 1) for t in range(k + 1, N + 1)]
    shifted = poly.translate(point)
    n = k * (N - k)
    coeffs = {}
    for I in enumerate_indices(k, N):
        P = [p for p in range(1, k + 1) if p not in I]
        T = [v for v in I if v > k]
        exp = [0] * n
        for p, t in zip(P, T):
            exp[var_index(p, t, k, N)] = 1
        c = shifted.coefficient(tuple(exp))
        if c != 0:
            raw = list(first_index(k, N))
            for p, t in zip(P, T):
                raw[p - 1] = t
            _, sign = sort_with_sign(raw, N)
            coeffs[I] = sign * c
    return ExteriorArray(k, N, coeffs)
