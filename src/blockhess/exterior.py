"""Alternating coefficient arrays and the multilinear form F(A, x).

An ``ExteriorArray`` A holds the coefficients a_I of a degree-k alternating
array on C^N.  The associated form on the chart E around the coordinate
point of If = (1..k) is

    F(A, x) = sum_I a_I eta_I([Id_k | X])

where eta_I is the k x k minor with columns I.  Every Hessian entry and
defining form downstream is a shifted coefficient symbol: If with value t
placed at position p, read through ``get`` with the sign of sorting.
The value, gradient and Hessian at a chart point X are all read at the
chart origin off the translated array ``act_translation(A, X)``, whose
form is F(A, X + y).
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections.abc import Mapping, Sequence
from operator import itemgetter, lt

from .multiindex import MultiIndex, first_index, is_valid_index, sort_with_sign, star
from .ring import Scalar, scalar_from_string, scalar_to_string


def _all_valid_tuples(keys, k: int, N: int) -> bool:
    """Are all keys plain tuples passing ``is_valid_index``?  C-level passes, no key copies."""
    return (
        {tuple} == set(map(type, keys))
        and {k} == set(map(len, keys))
        and {int, bool}.issuperset(map(type, itertools.chain.from_iterable(keys)))
        and all(all(map(lt, map(itemgetter(j), keys), map(itemgetter(j + 1), keys))) for j in range(k - 1))
        and 1 <= min(map(itemgetter(0), keys))
        and max(map(itemgetter(k - 1), keys)) <= N
    )


class ExteriorArray:
    """Map MultiIndex -> coefficient, stored on sorted keys only.

    Access with an arbitrary tuple resolves through sort_with_sign, so the
    alternating relations a(permuted I) = sign * a(I) and a(repeat) = 0 hold
    by construction.
    """

    __slots__ = ("k", "N", "coeffs")

    def __init__(self, k: int, N: int, coeffs: Mapping[MultiIndex, Scalar] | None = None):
        if not 1 <= k <= N:
            raise ValueError(f"need 1 <= k <= N, got k={k}, N={N}")
        self.k = k
        self.N = N
        self.coeffs: dict[MultiIndex, Scalar] = {}
        if coeffs and _all_valid_tuples(coeffs.keys(), k, N):
            self.coeffs = {I: c for I, c in coeffs.items() if c != 0}
        elif coeffs:
            for I, c in coeffs.items():
                I = tuple(I)
                if not is_valid_index(I, k, N):
                    raise ValueError(f"key {I} is not a sorted multiindex for (k,N)=({k},{N})")
                if c != 0:
                    self.coeffs[I] = c

    def get(self, I: Sequence[int]):
        """Coefficient at an arbitrary (possibly unsorted) tuple."""
        idx, sign = sort_with_sign(I, self.N)
        if sign == 0:
            return 0
        c = self.coeffs.get(idx, 0)
        return c if sign == 1 else -c

    def items(self):
        """Nonzero entries in lexicographic key order."""
        return sorted(self.coeffs.items())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ExteriorArray)
            and (self.k, self.N) == (other.k, other.N)
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        return f"ExteriorArray(k={self.k}, N={self.N}, nnz={len(self.coeffs)})"

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "N": self.N,
            "entries": [
                {"I": list(I), "c": scalar_to_string(c)} for I, c in self.items()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExteriorArray":
        k, N = int(data["k"]), int(data["N"])
        coeffs: dict[MultiIndex, Scalar] = {}
        for ent in data.get("entries", ()):
            I = tuple(int(v) for v in ent["I"])
            if not is_valid_index(I, k, N):
                raise ValueError(f"entry index {list(I)} must be sorted, distinct, in [1,{N}]")
            if I in coeffs:
                raise ValueError(f"duplicate entry index {list(I)}")
            coeffs[I] = scalar_from_string(ent["c"])
        return cls(k, N, coeffs)


class ChartPoint:
    """The k x (N-k) coordinate matrix X on the chart E; rows = positions."""

    __slots__ = ("k", "N", "X")

    def __init__(self, k: int, N: int, X: tuple[tuple, ...]):
        self.k = k
        self.N = N
        self.X = X

    @classmethod
    def from_rows(cls, k: int, N: int, rows: Sequence[Sequence]) -> "ChartPoint":
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != k or any(len(r) != N - k for r in rows):
            raise ValueError(f"chart point must be {k}x{N - k}")
        return cls(k, N, rows)


def _star_vanishes(A: ExteriorArray, J: MultiIndex) -> bool:
    """True iff a_I = 0 for every I in the star of J."""
    return not any(A.coeffs.get(I) for I in star(J, A.N))


def gradient(B: ExteriorArray) -> list[list]:
    """All first partials of the chart form at the origin, as a k x (N-k) grid.

    The linear term of F(B, y) in x^p_t is the coefficient symbol of If
    with t at position p.  For the partials of F(A, .) at a chart point X,
    pass B = ``act_translation(A, X)``, since F(B, y) = F(A, X + y).
    """
    base = list(first_index(B.k, B.N))
    return [
        [B.get(base[: p - 1] + [t] + base[p:]) for t in range(B.k + 1, B.N + 1)]
        for p in range(1, B.k + 1)
    ]


def is_critical(B: ExteriorArray) -> bool:
    """True iff the chart form and all its first partials vanish at the
    origin: B has no coefficient in the star of If.  At a chart point X,
    pass B = ``act_translation(A, X)``."""
    return _star_vanishes(B, first_index(B.k, B.N))


def act_translation(A: ExteriorArray, X: ChartPoint) -> ExteriorArray:
    """Translate the array by X: the B with F(B, y) = F(A, X + y).

    [Id_k | y] g = [Id_k | X + y] for g = [[Id_k, X], [0, Id_{N-k}]], so by
    Cauchy-Binet b_J = sum_I a_I minor(g; rows J, cols I).  With
    J_lo = J n [1, k] and J_hi = J n [k+1, N], that minor vanishes unless
    I = (J_lo \\ S) u T u J_hi for some S in J_lo and some |S| columns T
    above k outside J_hi, and then it is +-det X[S, T].
    Each nonzero a_I is therefore pushed to the J = (I_lo u S) u (I_hi \\ T),
    S outside I_lo, T inside I_hi; each minor of X is computed once per call.

    A coefficient is a Fraction when one of its terms with no zero factor
    has a Fraction factor, and an int otherwise.  The polynomial shift of
    F(A, .) that this replaces is the test oracle, in
    ``tests/exterior_oracle.py``.
    """
    k = A.k
    minor = _chart_minors(X)
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


def _chart_minors(X: ChartPoint):
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
