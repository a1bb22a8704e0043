"""Exact linear algebra kernels, one per domain and job.

Matrices are plain lists of lists of ints, Fractions or MultiPolys, and
every routine here is exact.  ``components`` splits a matrix of ints and
Fractions into the direct summands that its nonzero pattern shows, the
connected components of its bipartite row-column graph.  Determinants over
Z and Q run integer Bareiss on rows cleared of denominators, one summand at
a time, skipping the cross product on a row whose pivot-column entry is
zero; ``det_bareiss`` takes only matrices with a MultiPoly entry and
eliminates on packed monomials (see :mod:`.ring`).  ``rank_exact`` adds
the summands' ranks, each first taken mod p on rows cleared of denominators.
Rank and span over Q share one echelon routine on sparse integer rows;
rank and determinant over GF(p) share one elimination on rows packed into
single integers, each column a byte-rounded slot of e + bitlen(2**e // p) bits
with 2**e > (p-1) + ncols*(p-1)**2, so that row operations and the Barrett
reduction of each pivot row run in C and no slot carries into the next.
The typed, contract-carrying wrappers live in :mod:`blockhess.hessian`.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm, prod

from .ring import (
    WORD_PRIMES,
    MultiPoly,
    Scalar,
    _degree,
    _divide,
    _field_width,
    _guard_bits,
    _mul,
    _pack,
    _unpack,
    scalar_mod,
)


def det_bareiss(m: Sequence[Sequence]):
    """Fraction-free determinant (Bareiss) of a matrix with a MultiPoly entry.

    The MultiPolys share one arity; int and Fraction entries are constants.
    Each entry is packed once into ``{monomial int: coefficient}`` (see
    :mod:`.ring`), with fields for degree 2 * side * (largest entry degree),
    which bounds every numerator before its exact division.  The pivot is
    the nonzero entry of the trailing block with the fewest terms, first in
    row-major order; each row or column swap flips the sign.  A cell whose
    two cross products both vanish stays zero.  Only the result is unpacked,
    as a MultiPoly; a 1 x 1 determinant is its entry.
    """
    n = len(m)
    if n == 1:
        return m[0][0]
    polys = [e for row in m for e in row if isinstance(e, MultiPoly)]
    nvars = polys[0].nvars
    if any(e.nvars != nvars for e in polys):
        raise ValueError("determinant of polynomials of different arities")
    w = _field_width(2 * n * max(_degree(e.terms) for e in polys))
    one = (0,) * nvars
    a = [[_pack(e.terms if isinstance(e, MultiPoly) else {one: e} if e else {}, w) for e in row] for row in m]
    guard = _guard_bits(nvars, w)
    sign, prev = 1, {0: 1}
    for r in range(n - 1):
        best = min(((len(a[i][j]), i, j) for i in range(r, n) for j in range(r, n) if a[i][j]), default=None)
        if best is None:
            return MultiPoly.zero(nvars)
        _, pi, pj = best
        if pi != r:
            a[pi], a[r] = a[r], a[pi]
            sign = -sign
        if pj != r:
            for row in a:
                row[pj], row[r] = row[r], row[pj]
            sign = -sign
        top = a[r]
        pivot = top[r]
        for row in a[r + 1 :]:
            left = {e: -c for e, c in row[r].items()}
            for j in range(r + 1, n):
                x, y = row[j], top[j]
                if left and y:
                    row[j] = _divide(_mul(left, y, _mul(pivot, x) if x else None), prev, guard)
                elif x:
                    row[j] = _divide(_mul(pivot, x), prev, guard)
        prev = pivot
    out = MultiPoly(nvars)
    out.terms = _unpack({e: -c for e, c in a[-1][-1].items()} if sign < 0 else a[-1][-1], nvars, w)
    return out


def components(m: Sequence[Sequence[Scalar]]) -> list[tuple[list[int], list[int]]]:
    """The connected components of ``m``'s bipartite nonzero graph, which
    joins row i to column j where m[i][j] is nonzero, as (rows, columns)
    pairs of sorted indices.

    Components with a row come first, by their first row; a zero column
    follows as a component with no row, and a zero row is one with no
    column.  Listing the rows and the columns component by component makes
    ``m`` block diagonal (Pothen and Fan, ACM TOMS 16, 1990), so ranks add
    and the determinant is a signed product.  One component is the whole
    matrix.  Each row's pattern is one integer with a byte per column, so a
    row joins every component it meets in one big-integer AND per component.
    Rows of unequal length raise ValueError.
    """
    ncols = len(m[0]) if m else 0
    if len(set(map(len, m))) > 1:
        raise ValueError("matrix rows of unequal length")
    # [column mask, rows], in order of first row: a merge keeps the place of
    # the earliest group it joins
    groups: list[list] = []
    for i, row in enumerate(m):
        mask = int.from_bytes(bytes(map(bool, row)), "little")
        hit = [g for g in groups if g[0] & mask]
        if not hit:
            groups.append([mask, [i]])
            continue
        g = hit[0]
        for h in hit[1:]:
            g[0] |= h[0]
            g[1] += h[1]
        if len(hit) > 1:
            groups = [h for h in groups if h is g or not h[0] & mask]
        g[0] |= mask
        g[1].append(i)
    out, seen = [], 0
    for mask, rows in groups:
        seen |= mask
        out.append((sorted(rows), [j for j, b in enumerate(mask.to_bytes(ncols, "little")) if b]))
    zero = int.from_bytes(b"\1" * ncols, "little") ^ seen
    return out + [([], [j]) for j, b in enumerate(zero.to_bytes(ncols, "little")) if b]


def _parity(order: list[int]) -> int:
    """The sign of the permutation i -> order[i]: (-1)^(n - number of cycles)."""
    seen = [False] * len(order)
    swaps = len(order)
    for i in range(len(order)):
        if not seen[i]:
            swaps -= 1
            while not seen[i]:
                seen[i] = True
                i = order[i]
    return -1 if swaps % 2 else 1


def _bareiss(a: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination,
    each step dividing exactly by the previous pivot.  A row whose entry in
    the pivot column is zero is only scaled by pivot / previous pivot."""
    sign, prev = 1, 1
    while len(a) > 1:
        i = next((i for i, row in enumerate(a) if row[0]), None)
        if i is None:
            return 0
        if i:
            a[0], a[i] = a[i], a[0]
            sign = -sign
        p, top = a[0][0], a[0][1:]
        nxt = []
        for row in a[1:]:
            c = row[0]
            if c:
                nxt.append([(p * x - c * y) // prev for x, y in zip(row[1:], top)])
            else:
                nxt.append([p * x // prev for x in row[1:]])
        a, prev = nxt, p
    return sign * a[0][0]


def _cleared(m: Sequence[Sequence[Scalar]]) -> tuple[list[int], list[list[int]]]:
    """Each row's lcm of denominators, and the row times it: integers with ``m``'s pattern and row space."""
    dens = [lcm(*[e.denominator for e in row]) for row in m]
    return dens, [[e.numerator * (d // e.denominator) for e in row] for row, d in zip(m, dens)]


def _det_integer(m: Sequence[Sequence[Scalar]]):
    """Bareiss with exact ``//`` on rows cleared of denominators, divided back.

    A matrix of several ``components`` is eliminated block by block: its
    determinant is the parity of the row order times that of the column
    order times the product of the block determinants, and 0 when a block
    is not square.  The empty matrix has no component and determinant 1.
    """
    dens, a = _cleared(m)
    parts = components(a)
    if len(parts) == 1:
        det = _bareiss(a)
    elif any(len(rows) != len(cols) for rows, cols in parts):
        return 0
    else:
        det = _parity([i for rows, _ in parts for i in rows]) * _parity([j for _, cols in parts for j in cols])
        for rows, cols in parts:
            det *= _bareiss([[a[i][j] for j in cols] for i in rows])
    q = Fraction(det, prod(dens))
    return q.numerator if q.denominator == 1 else q


def det_exact_generic(m: Sequence[Sequence]):
    """Dispatch: Bareiss on polynomial entries, integer Bareiss on ints and
    Fractions of every size."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    if any(isinstance(e, MultiPoly) for row in m for e in row):
        return det_bareiss(m)
    return _det_integer(m)


def _echelon_mod(m: Sequence[Sequence[Scalar]], p: int) -> tuple[int, int]:
    """(rank, signed product of the pivots) of ``m`` over GF(p).

    Entries other than plain ints are reduced by ``scalar_mod``, so a
    Fraction whose denominator vanishes mod p raises ZeroDivisionError.
    Each row is one integer, column j in its ``bits``-wide slot j.  Each step
    pivots on the first row nonzero mod p in the leading slot and adds a
    multiple of it to every other row in one big-integer operation; a column
    with no pivot is dropped on its own.  Slots are reduced only when read,
    so each holds at most (p-1) + ncols*(p-1)**2 < 2**ebits.  The rest X of the
    pivot row is reduced whole (Barrett, mu = 2**ebits // p): a slot holds
    ebits + bitlen(mu) bits, so each x*mu fits, and q = x*mu >> ebits, masked
    to its slot, lies in [x//p - 1, x//p]; bit c = bitlen(2p) of x - p*q +
    2**c - p marks where one more p comes off.  Every row then gains
    f * x < p**2 per slot, so no carry crosses into the next.  The signed
    product is the determinant when the rank is full.  Rows of unequal
    length raise ValueError.
    """
    ncols = len(m[0]) if m else 0
    if len(set(map(len, m))) > 1:
        raise ValueError("matrix rows of unequal length")
    ebits = ((p - 1) + ncols * (p - 1) ** 2).bit_length()
    mu, c = (1 << ebits) // p, (2 * p).bit_length()
    nbytes = (ebits + mu.bit_length() + 7) // 8
    bits, mask, size = 8 * nbytes, (1 << 8 * nbytes) - 1, ncols * nbytes
    ones = ((1 << bits * ncols) - 1) // mask  # 1 in every slot
    qmask, K = ones * ((1 << bits - ebits) - 1), ones * ((1 << c) - p)
    buf = b"".join([(e % p if type(e) is int else scalar_mod(e, p)).to_bytes(nbytes, "little") for row in m for e in row])
    a = [int.from_bytes(buf[i * size : (i + 1) * size], "little") for i in range(len(m))]
    rank, det = 0, 1
    for _ in range(ncols):
        i = next((i for i, r in enumerate(a) if (r & mask) % p), None)
        if i is None:
            a = [r >> bits for r in a]
            continue
        top = a.pop(i)
        piv = (top & mask) % p
        # moving row i to the top is a cyclic shift of i + 1 rows
        det = (-det if i % 2 else det) * piv % p
        rank += 1
        scale = p - pow(piv, -1, p)
        X = top >> bits
        X -= p * ((X * mu >> ebits) & qmask)
        X -= p * ((X + K >> c) & ones)
        # each slot gains f * x < p**2; the shift drops the leading column
        a = [(r >> bits) + (r & mask) * scale % p * X for r in a]
    return rank, det


def rank_mod(m: Sequence[Sequence[Scalar]], p: int) -> int:
    """Rank over GF(p).  Lower-bounds the Q-rank."""
    return _echelon_mod(m, p)[0]


def det_mod(m: Sequence[Sequence[Scalar]], p: int) -> int:
    """Determinant over GF(p), in [0, p)."""
    n = len(m)
    if m and len(m[0]) != n:  # the kernel checks the other rows against the first
        raise ValueError("determinant of a non-square matrix")
    rank, det = _echelon_mod(m, p)
    return det if rank == n else 0


# A row over Q: dense, or sparse as a mapping from column keys of one
# ordered type (ints, or multiindex tuples) to their entries.
Row = Sequence[Scalar] | Mapping[object, Scalar]


def _content_free(row: dict) -> dict:
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def _primitive(row: Row) -> dict:
    """The nonzero entries of ``row`` as a sparse row of coprime integers,
    keyed by column index or by the mapping's own keys.

    Clearing denominators and dividing out the content scale the row by a
    nonzero rational, so ranks and row spaces are unchanged.
    """
    nonzero = [(j, e) for j, e in (row.items() if isinstance(row, Mapping) else enumerate(row)) if e]
    den = lcm(*[e.denominator for _, e in nonzero])
    return _content_free({j: e.numerator * (den // e.denominator) for j, e in nonzero})


def _eliminate(row: dict, piv: dict, c) -> dict:
    """Primitive integer multiple of ``row`` minus ``piv`` with column c cleared."""
    g = gcd(row[c], piv[c])
    a, b = piv[c] // g, row[c] // g
    out = {j: a * v for j, v in row.items()}
    for j, v in piv.items():
        w = out.get(j, 0) - b * v
        if w:
            out[j] = w
        else:
            del out[j]
    return _content_free(out)


def _insert(basis: dict, row: dict) -> bool:
    """Reduce the primitive ``row`` against ``basis`` and add a nonzero rest; True if added."""
    while row:
        c = min(row)
        if c not in basis:
            basis[c] = row
            return True
        row = _eliminate(row, basis[c], c)
    return False


def _echelon(m: Sequence[Row]) -> dict:
    """Echelon basis of the row space of ``m`` over Q, keyed by leading column.

    Rows are inserted one at a time and reduced against the basis by
    gcd-scaled integer row operations, so no entry is ever a fraction.
    """
    basis: dict = {}
    for row in m:
        _insert(basis, _primitive(row))
    return basis


def rank_fraction(m: Sequence[Row]) -> int:
    """Exact rank over Q: the size of the integer echelon basis."""
    return len(_echelon(m))


def rank_exact(m: Sequence[Sequence[Scalar]]) -> int:
    """Exact rank over Q: the sum of the ranks of the direct summands that
    ``components`` reads off the nonzero pattern, one matrix being one
    summand.  A full GF(p) rank r = min(rows, cols) of a summand's rows
    cleared of denominators is its Q rank: an r x r minor nonzero mod p is
    a nonzero integer, and no rank exceeds r.  Every other summand runs the
    exact echelon, cross-checked against that mod-p lower bound; cleared
    rows have no denominator to vanish mod p.  Rows of unequal length raise
    ValueError.
    """
    parts = components(m)
    split = ([[m[i][j] for j in cols] for i in rows] for rows, cols in parts if rows and cols)
    rank = 0
    for s in [m] if len(parts) == 1 else split:
        rp = rank_mod(_cleared(s)[1], WORD_PRIMES[0])
        r = rp if rp == min(len(s), len(s[0])) else rank_fraction(s)
        if rp > r:
            raise AssertionError(f"mod-p rank {rp} exceeds exact rank {r}")
        rank += r
    return rank


def span_equal(rows_a: Sequence[Row], rows_b: Sequence[Row]) -> bool:
    """Do two row families span the same subspace of Q^n?

    A full GF(p) rank certifies a rank, not a span, so each family is
    echeloned exactly, once.  The spans are equal when the two bases have
    the same size and every basis row of b reduces to zero against a's.
    """
    a, b = _echelon(rows_a), _echelon(rows_b)
    return len(a) == len(b) and not any(_insert(a, r) for r in b.values())
