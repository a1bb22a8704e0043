"""Reference routes for the tests; nothing in the library calls them.

``symbolic_coefficient_array`` and ``array_from_blocks`` rebuild each
(p < p', t < t') slot's sorted key and sign with ``sort_with_sign``, which
is what ``blockhess.hessian.symbolic_coefficient_array`` and
``blockhess.certificates.array_from_blocks`` did before they read keys and
signs from the assembly plan.  They share no code with that plan.

``duality_permutation`` and ``apply_permutation`` state the duality
regrouping as a 1-based permutation, as ``blockhess.hessian`` did before
``dualize_layout`` took over the order.
"""

from blockhess.exterior import ExteriorArray
from blockhess.multiindex import first_index, sort_with_sign
from blockhess.ring import MultiPoly


def symbolic_coefficient_array(k, N):
    """One fresh variable per (p < p', t < t'), numbered in that order."""
    slots = [
        (p, pp, t, tt)
        for p in range(1, k + 1)
        for pp in range(p + 1, k + 1)
        for t in range(k + 1, N + 1)
        for tt in range(t + 1, N + 1)
    ]
    coeffs = {}
    for v, (p, pp, t, tt) in enumerate(slots):
        raw = list(first_index(k, N))
        raw[p - 1] = t
        raw[pp - 1] = tt
        idx, sign = sort_with_sign(raw, N)
        # positional symbol = sign * a_idx, so a_idx = sign * var
        coeffs[idx] = sign * MultiPoly.variable(v, len(slots))
    return ExteriorArray(k, N, coeffs)


def array_from_blocks(k, N, blocks):
    """The coefficient array of well-formed upper blocks A_{pq}; block entry
    (u, v) is the positional coefficient with rows p, q moved to k+u, k+v."""
    m = N - k
    coeffs = {}
    for p in range(1, k + 1):
        for q in range(p + 1, k + 1):
            rows = blocks[f"A{p}{q}"]
            for u in range(1, m + 1):
                for v in range(u + 1, m + 1):
                    c = rows[u - 1][v - 1]
                    if c:
                        raw = list(range(1, k + 1))
                        raw[p - 1] = k + u
                        raw[q - 1] = k + v
                        I, s = sort_with_sign(raw, N)
                        coeffs[I] = s * c
    return ExteriorArray(k, N, coeffs)


def duality_permutation(k, N):
    """Row/column order that regroups the (k, N) layout as an (N-k, N) one.

    Position r of the result holds the old 1-based index; entry (p, t) moves
    so that labels are regrouped by t first: [1, (N-k)+1, 2(N-k)+1, ...],
    then [2, (N-k)+2, ...], and so on.
    """
    w = N - k
    return [j + (p - 1) * w for j in range(1, w + 1) for p in range(1, k + 1)]


def apply_permutation(rows, perm):
    """Reorder rows and columns by the same 1-based permutation."""
    return [[rows[pi - 1][pj - 1] for pj in perm] for pi in perm]
