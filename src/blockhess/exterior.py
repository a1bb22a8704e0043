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
from operator import is_, lt

from .multiindex import MultiIndex, first_index, is_valid_index, sort_with_sign
from .ring import Scalar, scalar_from_string


def _all_valid_tuples(keys, k: int, N: int) -> bool:
    """Are all keys plain tuples passing ``is_valid_index``?  C-level passes
    over the key columns, no key copies: a strict ``zip`` rejects keys of
    unequal lengths, and any entry that is not an int or a bool (a float, a
    Fraction, ...) makes the sum of all entries a non-int or raises TypeError.
    A bool entry passes those checks only as True in the first position
    (False is below 1, and every later entry exceeds the first); such a key
    raises ValueError."""
    if {tuple} != set(map(type, keys)):
        return False
    try:
        cols = list(zip(*keys, strict=True))
        valid = (
            len(cols) == k
            and type(sum(map(sum, cols))) is int
            and all(all(map(lt, a, b)) for a, b in zip(cols, cols[1:]))
            and 1 <= min(cols[0])
            and max(cols[-1]) <= N
        )
    except (TypeError, ValueError):
        return False
    if valid and bool in set(map(type, cols[0])):
        raise ValueError(_bool_key(next(I for I in keys if type(I[0]) is bool)))
    return valid


# (k, N, key objects) of the last key set that passed ``_all_valid_tuples``
_last_valid: tuple = (0, 0, ())


def _valid_keys(keys, k: int, N: int) -> bool:
    """``_all_valid_tuples``, skipped for the very key objects, in the same
    order, of the last set that passed at the same (k, N).  Only exact tuples
    of ints pass, and those cannot change, so identity is enough; equality
    is not, as (1, 2, 3) == (1.0, 2.0, 3.0).  A set that passes replaces the
    memo, which holds that one set by strong reference, so no object it
    compares against can die and hand its id to another."""
    global _last_valid
    last_k, last_N, last = _last_valid
    if (last_k, last_N) == (k, N) and len(keys) == len(last) and all(map(is_, keys, last)):
        return True
    if not _all_valid_tuples(keys, k, N):
        return False
    _last_valid = (k, N, tuple(keys))
    return True


def _bool_key(I: tuple) -> str:
    return f"key {I} holds a bool entry"


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
        if coeffs and _valid_keys(coeffs.keys(), k, N):
            self.coeffs = dict(coeffs) if 0 not in coeffs.values() else {I: c for I, c in coeffs.items() if c != 0}
        elif coeffs:
            for I, c in coeffs.items():
                I = tuple(I)
                if not is_valid_index(I, k, N):
                    raise ValueError(f"key {I} is not a sorted multiindex for (k,N)=({k},{N})")
                if bool in map(type, I):
                    raise ValueError(_bool_key(I))
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
        and each index entry must be JSON integers, never floats or bools; 1 <= k < N."""
        k, N = data["k"], data["N"]
        if type(k) is not int or type(N) is not int:
            raise ValueError(f"k and N must be JSON integers, got k={k!r}, N={N!r}")
        if not 1 <= k < N:
            raise ValueError(f"need 1 <= k < N, got k={k}, N={N}")
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
        if len(X) != k or any(len(r) != N - k for r in X):
            raise ValueError(f"chart point must be {k}x{N - k}")
        self.k = k
        self.N = N
        self.X = X

    @classmethod
    def from_rows(cls, k: int, N: int, rows: Sequence[Sequence]) -> "ChartPoint":
        rows = tuple(tuple(r) for r in rows)
        _require_exact(itertools.chain.from_iterable(rows), "a chart-point entry")
        return cls(k, N, rows)


def _star_vanishes(A: ExteriorArray, J: MultiIndex) -> bool:
    """True iff a_I = 0 for every I in the star of J, the I sharing at least
    k - 1 entries with J.  Every key counts: the constructor keeps no zero."""
    members = set(J)
    return not any(len(members.intersection(I)) >= A.k - 1 for I in A.coeffs)


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

    [Id_k | y] g = [Id_k | X + y] for g = [[Id_k, X], [0, Id_{N-k}]], and g
    is the product of the k(N-k) transvections Id + x^p_t E_pt, which
    commute since every product E_pt E_p't' is zero.  By Cauchy-Binet,
    b_J = sum_I a_I minor(g; rows J, cols I), and the transvection at
    (p, t) pushes x^p_t a_I to J = I - t + p for each I holding t but not
    p, with the sign (-1)^(entries of I strictly between p and t).  A path
    of pushes from I to J is one Leibniz term of det X[S, T].  The
    transvections run column by column: those of column t read only keys
    holding t and write only keys without it, so that column's sources are
    gathered once, and a column no key holds is skipped.

    The loop runs on ints, as fraction-free elimination does (Bareiss,
    Math. Comp. 22, 1968).  With D the lcm of the denominators of the a_I
    and L that of the entries of X, each a_I enters as the int
    a_I * D * L^|I n [1, k]| and each push multiplies by the int x^p_t * L,
    so every term of b_J carries the scale D * L^|J n [1, k]| and each
    coefficient is divided by it once, at the end.

    A coefficient is a Fraction when one of its terms with no zero factor
    has a Fraction factor, and an int otherwise: a zero x^p_t pushes
    nothing, and a push flags J when its source is flagged or x^p_t is a
    Fraction.  ``Fraction(n, 1)`` counts as a Fraction.  The coefficients
    of A and the entries of X must be ints or Fractions, and X must have
    A's k and N; anything else is a ValueError.  The polynomial shift of
    F(A, .) and a sum over the minors of X on Fraction arithmetic are the
    test oracles, in ``tests/exterior_oracle.py``.
    """
    k, N = A.k, A.N
    if (X.k, X.N) != (k, N):
        raise ValueError(f"a ({k},{N}) array needs a {k}x{N - k} chart point")
    D = _common_denominator(A.coeffs.values(), "a coefficient")
    L = _common_denominator(list(itertools.chain.from_iterable(X.X)), "a chart-point entry")
    # Index sets are bitmasks, bit v for the index v: rows are bits 1..k.
    row_bits = (1 << k + 1) - 2
    scales = [D * L**r for r in range(k + 1)]  # by the number of rows
    acc: dict[int, int] = {}
    flagged = set()
    for I, c in A.coeffs.items():
        Im = sum([1 << v for v in I])
        acc[Im] = c.numerator * scales[(Im & row_bits).bit_count()] // c.denominator
        if type(c) is Fraction:
            flagged.add(Im)
    for t in range(k + 1, N + 1):
        tbit = 1 << t
        sources = [(Im, c, Im in flagged) for Im, c in acc.items() if Im & tbit]
        if not sources:
            continue
        for p, x in enumerate([row[t - k - 1] for row in X.X], 1):
            if not x:
                continue
            pt, xL, x_fraction = 1 << p | tbit, x.numerator * (L // x.denominator), type(x) is Fraction
            between = tbit - (2 << p)  # the bits strictly between p and t
            for Im, c, from_flagged in sources:
                if Im & pt != tbit:
                    continue
                J = Im ^ pt
                acc[J] = acc.get(J, 0) + (-c * xL if (Im & between).bit_count() & 1 else c * xL)
                if from_flagged or x_fraction:
                    flagged.add(J)
    out = []
    for J, b in acc.items():
        if b:
            scale = scales[(J & row_bits).bit_count()]
            I, m = [], J  # the set bits of J, lowest first
            while m:
                I.append((m & -m).bit_length() - 1)
                m &= m - 1
            out.append((tuple(I), Fraction(b, scale) if J in flagged else b // scale))
    out.sort()
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
