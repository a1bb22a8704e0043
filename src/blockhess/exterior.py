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
from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import lcm
from operator import lt

from .multiindex import MultiIndex, first_index, is_valid_index, sort_with_sign, star
from .ring import Scalar, scalar_from_string


def _all_valid_tuples(keys, k: int, N: int) -> bool:
    """Are all keys plain tuples passing ``is_valid_index``?  C-level passes
    over the key columns, no key copies: a strict ``zip`` rejects keys of
    unequal lengths, and any entry that is not an int or a bool (a float, a
    Fraction, ...) makes the sum of all entries a non-int or raises TypeError."""
    if {tuple} != set(map(type, keys)):
        return False
    try:
        cols = list(zip(*keys, strict=True))
        return (
            len(cols) == k
            and type(sum(map(sum, cols))) is int
            and all(all(map(lt, a, b)) for a, b in zip(cols, cols[1:]))
            and 1 <= min(cols[0])
            and max(cols[-1]) <= N
        )
    except (TypeError, ValueError):
        return False


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
            self.coeffs = dict(coeffs) if 0 not in coeffs.values() else {I: c for I, c in coeffs.items() if c != 0}
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

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ExteriorArray)
            and (self.k, self.N) == (other.k, other.N)
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        return f"ExteriorArray(k={self.k}, N={self.N}, nnz={len(self.coeffs)})"

    # -- serialization -------------------------------------------------------

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExteriorArray":
        """Read ``{"k", "N", "entries": [{"I": [...], "c": "..."}]}``; k, N
        and each index entry must be JSON integers, never floats or bools."""
        k, N = data["k"], data["N"]
        if type(k) is not int or type(N) is not int:
            raise ValueError(f"k and N must be JSON integers, got k={k!r}, N={N!r}")
        coeffs: dict[MultiIndex, Scalar] = {}
        for ent in data.get("entries", ()):
            I = tuple(ent["I"])
            if any(type(v) is not int for v in I):
                raise ValueError(f"entry index {list(I)} must hold JSON integers")
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
        _require_exact(itertools.chain.from_iterable(rows), "a chart-point entry")
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

    The loop runs on ints, as fraction-free elimination does (Bareiss,
    Math. Comp. 22, 1968).  With D the lcm of the denominators of the a_I
    and L that of the entries of X, each a_I enters as the int a_I * D and
    each minor over s <= k rows as the int det X[S, T] * L^k (see
    ``_ChartMinors``), so every term of b_J carries the scale D * L^k and
    each coefficient is divided by it once, at the end.

    A coefficient is a Fraction when one of its terms with no zero factor
    has a Fraction factor, and an int otherwise; ``Fraction(n, 1)`` counts
    as a Fraction.  The coefficients of A and the entries of X must be ints
    or Fractions, and X must have A's shape; anything else is a ValueError.
    The polynomial shift of F(A, .) and the same pushes on Fraction
    arithmetic are the test oracles, in ``tests/exterior_oracle.py``.
    """
    k, N = A.k, A.N
    if (X.k, X.N) != (k, N):
        raise ValueError(f"a ({X.k},{X.N}) chart point cannot translate a ({k},{N}) array")
    D = _common_denominator(A.coeffs.values(), "a coefficient")
    minors = _ChartMinors(X)
    scale = D * minors[0][0]
    # Index sets are bitmasks, bit v for the index v: rows are bits 1..k.
    row_bits = minors.row_bits
    row_plans: dict[int, list] = {}
    column_plans: dict[int, list] = {}
    acc: dict[int, int] = {}
    flagged = set()
    for I, c in A.coeffs.items():
        Im = sum([1 << v for v in I])
        lo, hi = Im & row_bits, Im & ~row_bits
        if lo not in row_plans:
            row_plans[lo] = _row_plan(lo, k)
        if hi not in column_plans:
            column_plans[hi] = _column_plan(hi)
        is_fraction = type(c) is Fraction
        c = c.numerator * (D // c.denominator)
        for S_plan, T_plan in zip(row_plans[lo], column_plans[hi]):
            for Sm, S_odd in S_plan:
                signed = (-c, c) if S_odd else (c, -c)
                pushed = Im | Sm
                for Tm, T_odd in T_plan:
                    m = minors[Sm | Tm]
                    if m is None:
                        continue
                    J = pushed ^ Tm
                    acc[J] = acc.get(J, 0) + signed[T_odd] * m[0]
                    if is_fraction or m[1]:
                        flagged.add(J)
    out = sorted(
        (tuple([v for v in range(1, N + 1) if J >> v & 1]), Fraction(b, scale) if J in flagged else b // scale)
        for J, b in acc.items()
        if b
    )
    return ExteriorArray(k, N, dict(out))


def _require_exact(values, what: str) -> None:
    """ValueError unless every value is an int or a Fraction."""
    for v in values:
        if type(v) not in (int, bool, Fraction):
            raise ValueError(f"{what} must be an int or a Fraction, got {v!r}")


def _common_denominator(values, what: str) -> int:
    """The lcm of the denominators of ``values``: ints or Fractions only."""
    _require_exact(values, what)
    return lcm(*{v.denominator for v in values})


def _row_plan(lo: int, k: int) -> list[list[tuple[int, int]]]:
    """For each s, the row sets S of size s outside the rows ``lo`` of I, as
    (mask, parity of the row part of the sign).

    The sign of minor(g; J, I) is that of sorting J with each row S[a]
    replaced by its column T[a], which passes the rows of I above S[a] and
    the Tpos[a] - a columns of I_hi \\ T below T[a].  The row part is the
    sum over a of (rows of I above S[a]) - a; ``_column_plan`` adds sum(Tpos).
    """
    free = [p for p in range(1, k + 1) if not lo >> p & 1]
    above = [(lo >> p + 1).bit_count() for p in free]
    return [
        [
            (sum([1 << free[i] for i in Spos]), (sum([above[i] for i in Spos]) - s * (s - 1) // 2) & 1)
            for Spos in itertools.combinations(range(len(free)), s)
        ]
        for s in range(len(free) + 1)
    ]


def _column_plan(hi: int) -> list[list[tuple[int, int]]]:
    """For each s, the column sets T of size s inside the columns ``hi`` of
    I, as (mask, parity of the sum of T's positions in I_hi)."""
    cols = [1 << v for v in range(hi.bit_length()) if hi >> v & 1]
    return [
        [(sum([cols[i] for i in Tpos]), sum(Tpos) & 1) for Tpos in itertools.combinations(range(len(cols)), s)]
        for s in range(len(cols) + 1)
    ]


class _ChartMinors(dict):
    """det X[S, T] * L^k as an int, keyed by the bitmask S | T, where L is
    the lcm of the denominators of X's entries, filled on first lookup by
    Laplace expansion along the first row of S.

    Each entry is a pair (value, flag), where the flag says whether a term
    of the expansion with no zero factor has a Fraction factor; it is None
    when every term has a zero factor.  The key 0 holds (L^k, False).
    X's entries enter scaled by L, so each Laplace sum carries L^(k+1) and
    is divided by L exactly: det X[S, T] * L^|S| is an int and |S| <= k.
    """

    __slots__ = ("L", "rows", "row_bits")

    def __init__(self, X: ChartPoint):
        k = X.k
        self.L = L = _common_denominator(list(itertools.chain.from_iterable(X.X)), "a chart-point entry")
        # rows[p][t]: the entry x^p_t scaled by L and its Fraction flag, None for 0
        self.rows = [None] + [
            [None] * (k + 1) + [(x.numerator * (L // x.denominator), type(x) is Fraction) if x else None for x in r]
            for r in X.X
        ]
        self.row_bits = (1 << k + 1) - 2
        self[0] = (L**k, False)

    def __missing__(self, key: int):
        first = key & -key
        rest = key ^ first
        row = self.rows[first.bit_length() - 1]
        cols = rest & ~self.row_bits
        total, fraction, odd = None, False, False
        while cols:
            t = cols & -cols
            cols ^= t
            x = row[t.bit_length() - 1]
            sub = self[rest ^ t] if x else None
            if sub is not None:
                term = x[0] * sub[0]
                total = (0 if total is None else total) + (-term if odd else term)
                fraction = fraction or x[1] or sub[1]
            odd = not odd
        entry = None if total is None else (total // self.L, fraction)
        self[key] = entry
        return entry
