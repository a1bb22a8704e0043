"""Reference routes for coefficient arrays in the tests; nothing in the
library calls them.

``checked_coeffs`` is the key-by-key check that ``ExteriorArray`` falls
back to when its all-keys-at-once check fails.

The polynomial route: ``dehomogenized_polynomial`` expands the chart form
F(A, x) by Leibniz sums over the column minors of [Id_k | x].
``gradient``, ``second_partials`` and ``is_critical`` differentiate and
evaluate it term by term, and ``act_translation`` shifts it to
F(A, X + y) with ``MultiPoly.translate`` and reads each coefficient back
off its squarefree monomial.  ``evaluate_form`` sums a_I times the
cofactor minors of the frame.  ``act_gl`` is the general right action of
GL_N, one cofactor minor per pair (I, J).  All of them are slow and share
no code with the transvection kernel in ``blockhess.exterior`` or with
the block-swap relabel in ``blockhess.hessian.assemble_dual``.

``act_translation_fraction`` is an independent route to the same array:
where the library pushes each coefficient through k(N-k) transvections,
it pushes a_I to each J at once, times the minor det X[S, T] by
Cauchy-Binet, on Fraction arithmetic with no common scale.  It is the
reference for the exact value and the exact type of every coefficient.

``star`` lists the multiindices that differ from J in at most one
position, one replacement at a time; the library's criticality test asks
instead which keys share at least k - 1 entries with J.

``array_to_json_dict`` writes the array-file document that
``ExteriorArray.from_json_dict`` reads.
"""

import itertools
from bisect import bisect_right

from blockhess.exterior import ChartPoint, ExteriorArray
from blockhess.multiindex import MultiIndex, enumerate_indices, first_index, is_valid_index, sort_with_sign
from blockhess.ring import MultiPoly, Scalar
from linalg_oracle import det_cofactor
from ring_oracle import evaluate, partial


def checked_coeffs(k, N, coeffs):
    """The nonzero entries of ``coeffs`` on plain-tuple keys, checked one key
    at a time; the first key that is not a sorted multiindex, or that holds
    a bool, raises."""
    out = {}
    for I, c in coeffs.items():
        I = tuple(I)
        if not is_valid_index(I, k, N):
            raise ValueError(f"key {I} is not a sorted multiindex for (k,N)=({k},{N})")
        if any(isinstance(v, bool) for v in I):
            raise ValueError(f"key {I} holds a bool entry")
        if c != 0:
            out[I] = c
    return out


def var_index(p, t, k, N):
    """Flat variable index of x^p_t: row-major, matching Hessian row labels."""
    return (p - 1) * (N - k) + (t - k - 1)


def zero_point(k, N):
    """The chart origin X = 0."""
    return ChartPoint.from_rows(k, N, [[0] * (N - k) for _ in range(k)])


def chart_coords(X):
    """The entries x^p_t of a chart point in ``var_index`` order."""
    return [e for row in X.X for e in row]


def frame(X):
    """The k x N row frame [Id_k | X]."""
    return [[int(c == p) for c in range(X.k)] + list(row) for p, row in enumerate(X.X)]


def frame_minor(rows, I):
    """The k x k minor of a k x N row frame with columns I (1-based)."""
    return det_cofactor([[row[c - 1] for c in I] for row in rows])


def evaluate_form(A, X):
    """F(A, X) = sum_I a_I eta_I([Id_k | X])."""
    rows = frame(X)
    total = 0
    for I, c in sorted(A.coeffs.items()):
        total = total + c * frame_minor(rows, I)
    return total


def _perm_sign(images):
    return -1 if sum(a > b for a, b in itertools.combinations(images, 2)) % 2 else 1


def dehomogenized_polynomial(A):
    """F(A, x) as a polynomial in the chart coordinates x^p_t.

    Total degree is at most min(k, N-k).
    """
    k, N = A.k, A.N
    n = k * (N - k)
    terms = {}
    for I, c in sorted(A.coeffs.items()):
        # minor of [Id | X] with columns I: identity columns pin their rows,
        # the remaining rows P are matched to the X-columns T in all ways.
        # Each (I, matching) gives its own monomial, so no two terms collide.
        fixed = [v for v in I if v <= k]
        T = [v for v in I if v > k]
        P = [p for p in range(1, k + 1) if p not in fixed]
        col_of = {v: j for j, v in enumerate(I)}
        for assign in itertools.permutations(P):
            # row assign[j] picks column T[j]; the rest sit on the identity.
            perm_images = [0] * k
            for v in fixed:
                perm_images[v - 1] = col_of[v]
            for j, p in enumerate(assign):
                perm_images[p - 1] = col_of[T[j]]
            exp = [0] * n
            for j, p in enumerate(assign):
                exp[var_index(p, T[j], k, N)] += 1
            terms[tuple(exp)] = _perm_sign(perm_images) * c
    return MultiPoly(n, terms)


def gradient(A, X):
    """All first partials of the expanded form at X, as a k x (N-k) grid."""
    k, N = A.k, A.N
    poly = dehomogenized_polynomial(A)
    pt = chart_coords(X)
    return [[evaluate(partial(poly, var_index(p, t, k, N)), pt) for t in range(k + 1, N + 1)] for p in range(1, k + 1)]


def second_partials(A, X):
    """The k(N-k)-square grid of second partials of the expanded form at X."""
    poly = dehomogenized_polynomial(A)
    pt = chart_coords(X)
    firsts = [partial(poly, i) for i in range(len(pt))]
    return [[evaluate(partial(f, j), pt) for j in range(len(pt))] for f in firsts]


def is_critical(A, X):
    """F(A, X) = 0 and every first partial vanishes at X."""
    if evaluate(dehomogenized_polynomial(A), chart_coords(X)) != 0:
        return False
    return all(e == 0 for row in gradient(A, X) for e in row)


def act_translation(A, X):
    """The array whose chart form is F(A, X + y), by polynomial shift."""
    k, N = A.k, A.N
    shifted = dehomogenized_polynomial(A).translate(chart_coords(X))
    n = k * (N - k)
    coeffs = {}
    for I in enumerate_indices(k, N):
        P = [p for p in range(1, k + 1) if p not in I]
        T = [v for v in I if v > k]
        exp = [0] * n
        for p, t in zip(P, T):
            exp[var_index(p, t, k, N)] = 1
        c = shifted.terms.get(tuple(exp), 0)
        if c != 0:
            raw = list(first_index(k, N))
            for p, t in zip(P, T):
                raw[p - 1] = t
            _, sign = sort_with_sign(raw, N)
            coeffs[I] = sign * c
    return ExteriorArray(k, N, coeffs)


def act_gl(A, g):
    """Right action of GL_N: (A . g)_J = sum_I a_I * minor(g; rows I, cols J)."""
    k, N = A.k, A.N
    coeffs = {}
    for J in enumerate_indices(k, N):
        total = 0
        for I, c in sorted(A.coeffs.items()):
            total = total + c * det_cofactor([[g[i - 1][j - 1] for j in J] for i in I])
        if total != 0:
            coeffs[J] = total
    return ExteriorArray(k, N, coeffs)


def w_swap_matrix(k, N):
    """The block swap w = [[0, Id_{N-k}], [Id_k, 0]]: w e_j = e_{N-k+j} for
    j <= k and e_{j-k} for j > k.  Conjugating the chart by w turns E into wE."""
    g = [[0] * N for _ in range(N)]
    for j in range(1, k + 1):
        g[N - k + j - 1][j - 1] = 1
    for j in range(k + 1, N + 1):
        g[j - k - 1][j - 1] = 1
    return g


def act_translation_fraction(A: ExteriorArray, X: ChartPoint) -> ExteriorArray:
    """Translate the array by X: the B with F(B, y) = F(A, X + y).

    [Id_k | y] g = [Id_k | X + y] for g = [[Id_k, X], [0, Id_{N-k}]], so by
    Cauchy-Binet b_J = sum_I a_I minor(g; rows J, cols I).  With
    J_lo = J n [1, k] and J_hi = J n [k+1, N], that minor vanishes unless
    I = (J_lo \\ S) u T u J_hi for some S in J_lo and some |S| columns T
    above k outside J_hi, and then it is +-det X[S, T].
    Each nonzero a_I is therefore pushed to the J = (I_lo u S) u (I_hi \\ T),
    S outside I_lo, T inside I_hi; each minor of X is computed once per call.

    A coefficient is a Fraction when one of its terms with no zero factor
    has a Fraction factor, and an int otherwise.  Every product and sum is
    taken in int/Fraction arithmetic as it comes, so this is the reference
    for both the values and the value types of the library's scaled
    integer transvections.
    """
    k = A.k
    minor = chart_minors_fraction(X)
    acc: dict[MultiIndex, Scalar] = {}
    for I, c in A.coeffs.items():
        n_lo = bisect_right(I, k)
        lo, hi = I[:n_lo], I[n_lo:]
        h = len(hi)
        free = [p for p in range(1, k + 1) if p not in lo]
        # The sign of minor(g; J, I) is that of sorting J with each row S[a]
        # replaced by its column T[a], which passes the entries of lo above
        # S[a] and the Tpos[a] - a entries of I_hi \ T below T[a].
        above = [sum(v > p for v in lo) for p in free]
        for s in range(h + 1):
            for Spos in itertools.combinations(range(h), s):
                S = tuple([free[i] for i in Spos])
                J_lo = tuple(sorted(lo + S))
                parity = sum([above[i] for i in Spos]) - s * (s - 1) // 2
                for Tpos in itertools.combinations(range(h), s):
                    m = minor(S, tuple([hi[i] for i in Tpos]))
                    if m is None:
                        continue
                    J = J_lo + tuple([hi[i] for i in range(h) if i not in Tpos])
                    acc[J] = acc.get(J, 0) + (c if (parity + sum(Tpos)) % 2 == 0 else -c) * m
    return ExteriorArray(k, A.N, {J: acc[J] for J in sorted(acc) if acc[J] != 0})


def chart_minors_fraction(X: ChartPoint):
    """Memoized minor(S, T) = det X[rows S, cols T] for sorted S, T, by
    Laplace expansion along the first row; None when every term of the
    expansion has a zero factor."""
    k = X.k
    memo: dict[tuple[MultiIndex, MultiIndex], Scalar | None] = {((), ()): 1}

    def minor(S: MultiIndex, T: MultiIndex):
        key = (S, T)
        if key in memo:
            return memo[key]
        row, rest = X.X[S[0] - 1], S[1:]
        total = None
        for j, t in enumerate(T):
            x = row[t - k - 1]
            if x == 0:
                continue
            sub = minor(rest, T[:j] + T[j + 1 :])
            if sub is None:
                continue
            term = (x if j % 2 == 0 else -x) * sub
            total = term if total is None else total + term
        memo[key] = total
        return total

    return minor


def array_to_json_dict(A: ExteriorArray) -> dict:
    """``{"k", "N", "entries": [{"I": [...], "c": "..."}]}``, entries in key order."""
    return {"k": A.k, "N": A.N, "entries": [{"I": list(I), "c": str(c)} for I, c in sorted(A.coeffs.items())]}


def star(J: MultiIndex, N: int) -> set[MultiIndex]:
    """All multiindices differing from J in at most one position.

    Includes J itself; the count is 1 + k(N-k).
    """
    k = len(J)
    if not is_valid_index(J, k, N):
        raise ValueError(f"invalid multiindex {J} for N={N}")
    out = {J}
    members = set(J)
    for j in J:
        for m in range(1, N + 1):
            if m not in members:
                out.add(tuple(sorted((set(J) - {j}) | {m})))
    return out
