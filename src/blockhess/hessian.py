"""Block skew-symmetric Hessians of the chart form.

``assemble`` turns an ExteriorArray into the k(N-k) x k(N-k) matrix of
second partials of the dehomogenized form at the chart origin.  Rows and
columns are labeled by pairs (p, t) with p in 1..k and t in k+1..N, grouped
into k blocks of side N-k.  The diagonal blocks vanish and off-diagonal
blocks are skew because the form is multilinear in the frame rows; those
facts are checked, never assumed, in the tests.

Also here: exact determinant/rank front ends, the determinant restricted
to a line over GF(p) and the (3,6) cube identity checked with it, the
(k, N) <-> (N-k, N) block-layout reordering with its random trials, and
the direct-sum embedding of two Hessians into a larger one.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from functools import lru_cache
from itertools import repeat
from math import comb
from operator import neg

from . import linalg
from .exterior import ExteriorArray
from .multiindex import MultiIndex, enumerate_indices
from .ring import MultiPoly, lagrange_interpolate_mod, prime_for_trial, uni_root_structure_mod


class HessianMatrix:
    """Square matrix of side k(N-k) with (p, t)-labeled rows and columns."""

    __slots__ = ("k", "N", "rows")

    def __init__(self, k: int, N: int, rows: list[list]):
        """Keeps ``rows`` as given, uncopied: pass fresh lists."""
        side = k * (N - k)
        if len(rows) != side or any(map(side.__ne__, map(len, rows))):
            raise ValueError(f"matrix must be {side}x{side} for (k,N)=({k},{N})")
        self.k = k
        self.N = N
        self.rows = rows

    @property
    def side(self) -> int:
        return self.k * (self.N - self.k)

    def block(self, i: int, j: int) -> list[list]:
        """The (N-k) x (N-k) block at block position (i, j), 1-based."""
        w = self.N - self.k
        r0, c0 = (i - 1) * w, (j - 1) * w
        return [row[c0 : c0 + w] for row in self.rows[r0 : r0 + w]]

    def is_structurally_valid(self) -> bool:
        """Symmetric, zero on the diagonal blocks and skew on the others, read
        off one triangle.  Zero is ``== 0``, not falsy: a zero MultiPoly is truthy."""
        R, w = self.rows, self.N - self.k
        n = len(R)
        return all(
            R[i][j] == R[j][i]
            and (R[i][j] == 0 if i // w == j // w else R[i][j] == -R[i - i % w + j % w][j - j % w + i % w])
            for i in range(n)
            for j in range(i, n)
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HessianMatrix)
            and (self.k, self.N) == (other.k, other.N)
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return f"HessianMatrix(k={self.k}, N={self.N}, side={self.side})"


# ---------------------------------------------------------------------------
# assembly


#: Largest Hessian side k(N-k) ``assemble`` lays out.  A plan and its rows hold
#: side^2 cells: 45 MB at side 1,002, and 299,991^2 at (3, 100000).
ASSEMBLY_SIDE_CAP = 1024


@lru_cache(maxsize=16)
def _assembly_plan(
    k: int, N: int
) -> tuple[tuple[MultiIndex, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The coefficient keys ``assemble`` reads at shape (k, N), each key's
    sign, and for each cell of the Hessian its index into values + negated
    values + [zero].

    Entry ((p,t), (p',t')) is the coefficient symbol with t at position p
    and t' at position p': ``A.get`` of If with those two entries rewritten.
    Same-block entries vanish because the form is affine in each frame row.  For p < p'
    and t < t' that symbol is sign * a_{rest + (t, t')}, where rest is If
    without p and p': sorting moves t past the k - p - 1 entries of rest
    after it and t' past the k - p', so sign = (-1)^(2k - p - p' - 1), and
    swapping t and t' flips it.  Keys and signs run over (p < p', t < t') in
    that order; each key is read once and indexed from its four cells.  A
    plan holds side^2 indices, hence the bounded cache and ``ASSEMBLY_SIDE_CAP``.
    """
    w = N - k
    if k * w > ASSEMBLY_SIDE_CAP:
        raise ValueError(f"({k},{N}) Hessian has side {k * w}, over the cap of {ASSEMBLY_SIDE_CAP}")
    n = comb(k, 2) * comb(w, 2)
    keys: list[MultiIndex] = []
    signs: list[int] = []
    rows = [[2 * n] * (k * w) for _ in range(k * w)]
    for p in range(1, k + 1) if n else ():  # n = 0 at w < 2: no cell to fill, however large k is
        for pp in range(p + 1, k + 1):
            rest = tuple([i for i in range(1, k + 1) if i != p and i != pp])
            odd = (2 * k - p - pp - 1) % 2
            r, rr = (p - 1) * w, (pp - 1) * w
            for u in range(w):
                for v in range(u + 1, w):
                    i = len(keys)
                    keys.append(rest + (k + 1 + u, k + 1 + v))
                    signs.append(-1 if odd else 1)
                    plus, minus = (i + n, i) if odd else (i, i + n)
                    rows[r + u][rr + v] = rows[rr + v][r + u] = plus
                    rows[r + v][rr + u] = rows[rr + u][r + v] = minus
    return tuple(keys), tuple(signs), tuple(map(tuple, rows))


def assemble(A: ExteriorArray) -> HessianMatrix:
    """Second partials of the dehomogenized form at the chart origin, laid
    out by ``_assembly_plan``; a missing key and a structural zero are both the
    zero of the entries' ring, so one matrix holds one zero."""
    keys, _, plan = _assembly_plan(A.k, A.N)
    zero = _zero_of(A.coeffs.values())
    vals = list(map(A.coeffs.get, keys, repeat(zero)))
    cells = [*vals, *map(neg, vals), zero]
    return HessianMatrix(A.k, A.N, [list(map(cells.__getitem__, row)) for row in plan])


def _zero_of(entries) -> int | MultiPoly:
    """The zero of the entries' ring: MultiPoly's on the first polynomial
    entry's variables, else int 0."""
    if not any(issubclass(t, MultiPoly) for t in set(map(type, entries))):
        return 0
    return MultiPoly.zero(next(filter(MultiPoly.__instancecheck__, entries)).nvars)


def coefficient_names(k: int, N: int) -> list[str]:
    """Names of the independent entry symbols, ordered (p, p', t, t')."""
    return [
        f"a_{p}_{pp}_{t}_{tt}"
        for p in range(1, k + 1)
        for pp in range(p + 1, k + 1)
        for t in range(k + 1, N + 1)
        for tt in range(t + 1, N + 1)
    ]


#: Most variables ``symbolic_coefficient_array`` builds.  Each variable's
#: exponent vector is a dense tuple as long as the count, so memory grows
#: as its square: the symbolic (8,30) Hessian has 6,468 variables and peaks
#: at about 340 MB, 8,000 variables come to about 512 MB of exponent tuples,
#: and (10,40) would need 19,575 variables and about 3 GB.
SYMBOLIC_VARIABLE_CAP = 8000


def symbolic_coefficient_array(k: int, N: int) -> ExteriorArray:
    """ExteriorArray whose degree-2 replacement coefficients are fresh
    variables, one per (p < p', t < t'); everything else zero.

    ValueError, before anything is built, when C(k,2) * C(N-k,2) exceeds
    ``SYMBOLIC_VARIABLE_CAP``.
    """
    n = comb(k, 2) * comb(N - k, 2)
    if n > SYMBOLIC_VARIABLE_CAP:
        raise ValueError(
            f"symbolic ({k},{N}) needs {n} variables, over the cap of {SYMBOLIC_VARIABLE_CAP}"
        )
    keys, signs, _ = _assembly_plan(k, N)
    # positional symbol = sign * a_key, so a_key = sign * var
    return ExteriorArray(k, N, {I: s * MultiPoly.variable(v, n) for v, (I, s) in enumerate(zip(keys, signs))})


def assemble_symbolic(k: int, N: int) -> HessianMatrix:
    """Fully symbolic Hessian: one variable per independent entry pattern,
    every other entry produced by the structural relations."""
    return assemble(symbolic_coefficient_array(k, N))


def assemble_dual(A: ExteriorArray) -> HessianMatrix:
    """Hessian at the opposite coordinate point, in swapped-chart coordinates.

    Conjugating by the block swap w, with w e_j = e_{N-k+j} for j <= k and
    e_{j-k} for j > k, moves the chart around the opposite point back to the
    standard one, so this is assemble(A . w) with (A . w)_J = sign * a_{w(J)}.
    An I with n entries at most N-k comes from the J that lists its other
    k - n entries minus (N-k), then its first n plus k; sorting w(J) moves
    those n past the k - n, so sign = (-1)^(n(k-n)).  Row label (p, t) of
    the result is the swapped-chart coordinate pair (p, t - k).
    """
    k, m = A.k, A.N - A.k
    swapped = {}
    for I, c in A.coeffs.items():
        n = bisect_right(I, m)
        swapped[tuple([i - m for i in I[n:]] + [i + k for i in I[:n]])] = -c if n * (k - n) % 2 else c
    return assemble(ExteriorArray(k, A.N, swapped))


# ---------------------------------------------------------------------------
# exact linear algebra front ends


def _rows_of(M) -> list[list]:
    return M.rows if isinstance(M, HessianMatrix) else [list(r) for r in M]


def det_exact(M):
    """Exact determinant over ints, rationals, or MultiPoly entries."""
    return linalg.det_exact_generic(_rows_of(M))


def det_mod(M, p: int) -> int:
    """Determinant over GF(p).

    Rational entries are reduced as numerator times the inverse of the
    denominator mod p, not truncated; a denominator divisible by p raises
    ZeroDivisionError.
    """
    return linalg.det_mod(_rows_of(M), p)


def rank_exact(M) -> int:
    """Exact rank over Q (see ``linalg.rank_exact``)."""
    return linalg.rank_exact(_rows_of(M))


def block_row_rank(H: HessianMatrix, i: int) -> int:
    """Rank of the i-th natural row block (height N-k, full width).

    Full rank here means N-k.
    """
    if not 1 <= i <= H.k:
        raise ValueError(f"block index {i} outside [1, {H.k}]")
    w = H.N - H.k
    rows = H.rows[(i - 1) * w : i * w]
    return linalg.rank_fraction(rows)


def rank_report(H: HessianMatrix) -> dict:
    """H's ``{side, rank, corank, block_row_ranks}``: what ``rank`` prints and corank-one records are judged by."""
    rank, ranks = rank_exact(H), [block_row_rank(H, i) for i in range(1, H.k + 1)]
    return {"side": H.side, "rank": rank, "corank": H.side - rank, "block_row_ranks": ranks}


# ---------------------------------------------------------------------------
# restriction to a line over GF(p), and the (3,6) cube identity


def det_on_line_mod(
    k: int, N: int, base: dict[MultiIndex, int], direction: dict[MultiIndex, int], p: int
) -> list[int]:
    """Coefficients, constant term first, of s -> det H(base + s*direction) over GF(p).

    ``base`` and ``direction`` map multiindices to integers (missing ones are
    0).  H is linear in the coefficients, so H(base + s*direction) is
    B + s*D with B = H(base) and D = H(direction), each assembled once.  The
    determinant has degree at most the side k(N-k), so it is interpolated
    from its values at s = 0, 1, ..., k(N-k).
    """
    B = assemble(ExteriorArray(k, N, base)).rows
    D = assemble(ExteriorArray(k, N, direction)).rows
    xs = list(range(k * (N - k) + 1))
    ys = [linalg.det_mod([[b + s * d for b, d in zip(rb, rd)] for rb, rd in zip(B, D)], p) for s in xs]
    return lagrange_interpolate_mod(xs, ys, p)


# the nine plain-named coefficients of the cube identity, row by row
_M_ROWS = (
    ((3, 4, 5), (3, 4, 6), (3, 5, 6)),
    ((2, 4, 5), (2, 4, 6), (2, 5, 6)),
    ((1, 4, 5), (1, 4, 6), (1, 5, 6)),
)


def identity_h36(trials: int = 20, seed: int = 0, include_symbolic: bool = True) -> dict:
    """Check det(H(3,6)) = 2 * det(M)^3 symbolically and over prime fields.

    The symbolic route expands the 9x9 determinant as a polynomial in the
    nine independent entry variables and subtracts twice the cube of the
    3x3 determinant of the plain-named coefficients.  Each trial is an
    independent corroboration at a random prime-field point (both sides
    computed from scratch), plus a line-restriction check that the degree-9
    polynomial on a random line is a cube up to a constant.  Trial i draws
    from ``random.Random(f"{seed}/identity-h36:{i}")``; ValueError if
    ``trials`` < 1.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    A = symbolic_coefficient_array(3, 6)
    M = [[A.get(I) for I in row] for row in _M_ROWS]
    report: dict = {"identity": "det H(3,6) = 2 det(M)^3"}
    if include_symbolic:
        D = det_exact(assemble(A))
        dM = linalg.det_exact_generic(M)
        diff = D - dM * dM * dM * 2
        report["symbolic_zero"] = not diff.terms
    else:
        report["symbolic_zero"] = "skipped"
    support = [I for I in enumerate_indices(3, 6) if A.get(I) != 0]
    trial_records = []
    for i in range(trials):
        rng = random.Random(f"{seed}/identity-h36:{i}")
        p = prime_for_trial(i)
        point = {I: rng.randrange(p) for I in support}
        H = assemble(ExteriorArray(3, 6, point))
        Mi = [[point.get(I, 0) for I in row] for row in _M_ROWS]
        lhs = det_mod(H, p)
        rhs = 2 * pow(linalg.det_exact_generic(Mi), 3, p) % p
        direction = {I: rng.randrange(p) for I in support}
        coeffs = det_on_line_mod(3, 6, point, direction, p)
        cube_ok = all(c == 0 for c in coeffs) or uni_root_structure_mod(coeffs, 3, p) is not None
        trial_records.append({"trial": i, "prime": p, "point_match": lhs == rhs, "cube_ok": cube_ok})
    report["trials"] = trial_records
    report["pass"] = (
        (report["symbolic_zero"] is True or report["symbolic_zero"] == "skipped")
        and all(t["point_match"] and t["cube_ok"] for t in trial_records)
    )
    return report


# ---------------------------------------------------------------------------
# duality reordering


def dualize_layout(H: HessianMatrix) -> HessianMatrix:
    """Regroup rows and columns by chart column first, relabelled as an (N-k, N)
    Hessian: 0-based label (p, t) at row p*w + t, w = N-k, moves to row t*k + p.
    One order on rows and columns keeps the determinant and the rank."""
    k, w = H.k, H.N - H.k
    order = [p * w + t for t in range(w) for p in range(k)]
    return HessianMatrix(w, H.N, [[H.rows[i][j] for j in order] for i in order])


def duality_trials(k: int, N: int, trials: int, seed: int = 0) -> list[dict]:
    """Trial i draws a (k, N) array from ``randint(-4, 4)`` of
    ``random.Random(f"{seed}/duality:{k}:{N}:{i}")`` and checks that
    ``dualize_layout`` of its Hessian is a valid (N-k, N) one with the same
    determinant.  ValueError if ``trials`` < 1, and before any draw if the
    side is over ``ASSEMBLY_SIDE_CAP`` or the C(N, k) coefficients are over
    its square, the most cells any assembly plan holds."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    _assembly_plan(k, N)
    if comb(N, k) > ASSEMBLY_SIDE_CAP**2:
        raise ValueError(f"({k},{N}) array has {comb(N, k)} coefficients, over the cap of {ASSEMBLY_SIDE_CAP**2}")
    records = []
    for i in range(trials):
        rng = random.Random(f"{seed}/duality:{k}:{N}:{i}")
        H = assemble(ExteriorArray(k, N, {I: rng.randint(-4, 4) for I in enumerate_indices(k, N)}))
        Hd = dualize_layout(H)
        d, dd = det_exact(H), det_exact(Hd)
        ok = Hd.is_structurally_valid()
        records.append({"mode": "numeric", "trial": i, "structure_ok": ok, "det": d, "det_relabeled": dd, "equal": d == dd})
    return records


# ---------------------------------------------------------------------------
# specialization embedding


def specialize_embed(H1: HessianMatrix, H2: HessianMatrix) -> HessianMatrix:
    """Direct-sum embedding into the Hessian shape for (k, a + b - k).

    Each block of the result carries H1's block on the first a-k chart
    columns, H2's block on the last b-k, and zeros in between; regrouping
    rows/columns by source turns it into blockdiag(H1, H2), so the
    determinant is exactly det(H1) * det(H2).  In the dual layouts the
    chart columns are positions, so this is the position split of the two
    duals, read back in the (k, a + b - k) layout.
    """
    if H1.k != H2.k:
        raise ValueError(f"mixed k: {H1.k} vs {H2.k}")
    if H1.N - H1.k < 1 or H2.N - H2.k < 1:
        raise ValueError("each factor needs at least one chart column")
    return dualize_layout(position_split_embed(dualize_layout(H1), dualize_layout(H2)))


def position_split_embed(H1: HessianMatrix, H2: HessianMatrix) -> HessianMatrix:
    """Stack two Hessians on disjoint row-position groups.

    Both factors must agree on the number of chart columns m; the result is
    the (k1 + k2, k1 + k2 + m) Hessian whose blocks (p, q) with p, q <= k1
    come from H1, blocks with p, q > k1 from H2, and all cross blocks zero.
    In the natural row order that is exactly blockdiag(H1, H2), so ranks add
    and the determinant is det(H1) * det(H2).
    """
    m = H1.N - H1.k
    if H2.N - H2.k != m:
        raise ValueError(f"chart-column mismatch: {m} vs {H2.N - H2.k}")
    k = H1.k + H2.k
    side = k * m
    zero = _zero_of(e for H in (H1, H2) for row in H.rows for e in row)
    rows = [[zero] * side for _ in range(side)]
    off = H1.k * m
    for r in range(H1.k * m):
        rows[r][: H1.k * m] = list(H1.rows[r])
    for r in range(H2.k * m):
        rows[off + r][off:] = list(H2.rows[r])
    return HessianMatrix(k, k + m, rows)
