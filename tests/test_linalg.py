import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockhess import certificates
from blockhess.exterior import ExteriorArray
from blockhess.hessian import assemble, det_exact, rank_exact
from blockhess.linalg import (
    components,
    det_bareiss,
    det_exact_generic,
    det_mod,
    rank_fraction,
    rank_mod,
    span_equal,
)
from blockhess.multiindex import enumerate_indices
from blockhess.ring import WORD_PRIMES, MultiPoly, prime_for_trial, scalar_mod

import linalg_oracle as oracle
from linalg_oracle import adjugate, det_cofactor, mat_mul
from ring_oracle import evaluate


def rand_matrix(rng, n, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def test_det_routes_agree_on_random_integer_matrices():
    rng = random.Random(20240811)
    assert det_exact_generic([]) == 1
    for n in (1, 2, 3, 4, 5):
        for _ in range(8):
            M = rand_matrix(rng, n)
            assert det_exact_generic(M) == det_cofactor(M)
            F = [[Fraction(e, rng.randint(1, 4)) for e in row] for row in M]
            assert det_exact_generic(F) == det_cofactor(F)


def test_det_bareiss_known_values():
    # scalar matrices go to the integer kernel; det_bareiss takes polynomials only
    for M, d in [([[2]], 2), ([[1, 2], [3, 4]], -2), ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 1), ([[1, 2], [2, 4]], 0)]:
        assert det_exact_generic(M) == det_cofactor(M) == d
    assert det_exact_generic([]) == 1  # empty product convention


def test_det_exact_generic_on_polynomials():
    x = MultiPoly.variable(0, 2)
    y = MultiPoly.variable(1, 2)
    M = [[x, y], [y, x]]
    d = det_exact_generic(M)
    assert d == x * x - y * y
    # cofactor route agrees
    assert det_cofactor(M) == d


_poly_coeffs = st.one_of(st.integers(-5, 5), st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))


@st.composite
def poly_matrices(draw):
    """Square polynomial matrices in 1 to 10 variables, sometimes with a zero
    row.  Each nonzero entry has total degree exactly ``degree`` and up to
    three lower terms, so the numerators of the last Bareiss steps have
    degree 2 * (side - 1) * degree; for each (side, degree) drawn here that
    sets the top value bit of the packed fields, which are sized for
    2 * side * degree."""
    n, degree = draw(st.sampled_from(((3, 1), (3, 2), (4, 3))))
    nvars = draw(st.integers(1, 10))

    def monomial(total):
        exp = [0] * nvars
        for i in draw(st.lists(st.integers(0, nvars - 1), min_size=total, max_size=total)):
            exp[i] += 1
        return tuple(exp)

    def entry():
        if draw(st.integers(0, 4)) == 0:
            return MultiPoly.zero(nvars)
        terms = {monomial(draw(st.integers(0, degree - 1))): draw(_poly_coeffs) for _ in range(draw(st.integers(0, 3)))}
        terms[monomial(degree)] = draw(_poly_coeffs.filter(bool))
        return MultiPoly(nvars, terms)

    M = [[entry() for _ in range(n)] for _ in range(n)]
    if draw(st.integers(0, 5)) == 0:
        M[draw(st.integers(0, n - 1))] = [MultiPoly.zero(nvars)] * n
    return M


@settings(max_examples=60, deadline=None)
@given(poly_matrices(), st.randoms(use_true_random=False))
def test_det_bareiss_on_polynomials_matches_cofactor_oracle(M, rng):
    # zero entries force pivot swaps; each quotient is an exact division on
    # packed monomials, and the cofactor route shares only MultiPoly's multiply
    d = det_bareiss(M)
    assert d == det_cofactor(M)
    # the value at an integer point, from a determinant of ints alone
    point = [rng.randint(-3, 3) for _ in range(d.nvars)]
    assert evaluate(d, point) == det_cofactor([[evaluate(e, point) for e in row] for row in M])


def test_det_bareiss_on_polynomials_normalizes_coefficients_and_zero():
    x, y = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
    half = Fraction(1, 2)
    d = det_bareiss([[x * half, y], [y, x * 2]])
    assert d == x * x - y * y
    assert {type(c) for c in d.terms.values()} == {int}
    assert det_bareiss([[x, y], [x, y]]) == MultiPoly.zero(2)
    assert det_bareiss([[x, 0], [0, 0]]) == MultiPoly.zero(2)


def test_det_mod_matches_exact():
    rng = random.Random(7)
    p = prime_for_trial(3)
    for _ in range(10):
        M = rand_matrix(rng, 4)
        assert det_mod(M, p) == det_cofactor(M) % p


def test_mod_p_routes_reduce_fractions():
    # 1/2 is 4 mod 7; truncating it to 0 gave det 0 and rank 2 here
    assert det_mod([[Fraction(1, 2), 0], [0, 1]], 7) == 4
    assert rank_mod([[Fraction(1, 2), 1], [1, 2]], 7) == 1
    with pytest.raises(ZeroDivisionError):
        det_mod([[Fraction(1, 7), 0], [0, 1]], 7)
    with pytest.raises(ZeroDivisionError):
        rank_mod([[1, Fraction(3, 14)]], 7)


def test_rank_routes_agree():
    rng = random.Random(99)
    p = prime_for_trial(0)
    for _ in range(12):
        n = rng.randint(2, 6)
        r = rng.randint(0, n)
        # random rank-r product
        A = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
        B = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        M = mat_mul(A, B) if r else [[0] * n for _ in range(n)]
        rf = rank_fraction(M)
        assert rf <= r
        assert rank_mod(M, p) == rf  # p astronomically unlikely to lower rank here


def test_rref_shape_and_pivots():
    M = [[2, 4, 6], [1, 2, 3], [0, 0, 5]]
    R, pivots = oracle.rref_fraction(M)
    assert pivots == [0, 2]
    for i, j in enumerate(pivots):
        assert R[i][j] == 1
        assert all(R[r][j] == 0 for r in range(len(R)) if r != i)


def test_adjugate_identity():
    rng = random.Random(5)
    for n in (1, 2, 3, 4):
        M = rand_matrix(rng, n)
        d = det_exact_generic(M)
        adj = adjugate(M)
        prod = mat_mul(M, adj)
        for i in range(n):
            for j in range(n):
                assert prod[i][j] == (d if i == j else 0)


def test_span_equal():
    a = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    b = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
    c = [[Fraction(1), Fraction(1)]]
    assert span_equal(a, b)
    assert not span_equal(a, c)
    assert span_equal(c, [[Fraction(2), Fraction(2)]])


def test_fraction_entries_supported():
    M = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
    assert det_exact_generic(M) == det_cofactor(M) == Fraction(1, 14) - Fraction(1, 15)
    assert rank_fraction(M) == 2


@pytest.mark.parametrize("rows, cols", [(2, 3), (1, 6), (5, 6), (3, 2)])
def test_det_rejects_non_square(rows, cols):
    M = [[i + 2 * j + 1 for j in range(cols)] for i in range(rows)]
    with pytest.raises(ValueError):
        det_exact_generic(M)
    with pytest.raises(ValueError):
        det_exact(M)


def shuffled_sum(rng, blocks, zero_rows=0, zero_cols=0):
    """The direct sum of ``blocks`` (lists of rows, any shapes) plus zero rows
    and columns, its rows and columns shuffled; also the planted components,
    as (rows, columns) index sets of the result."""
    nr = sum(len(b) for b in blocks) + zero_rows
    nc = sum(len(b[0]) for b in blocks) + zero_cols
    rs, cs = rng.sample(range(nr), nr), rng.sample(range(nc), nc)
    M = [[0] * nc for _ in range(nr)]
    planted, r0, c0 = [], 0, 0
    for b in blocks:
        rows, cols = rs[r0 : r0 + len(b)], cs[c0 : c0 + len(b[0])]
        for i, row in zip(rows, b):
            for j, e in zip(cols, row):
                M[i][j] = e
        planted.append((sorted(rows), sorted(cols)))
        r0, c0 = r0 + len(b), c0 + len(b[0])
    planted += [([i], []) for i in rs[r0:]] + [([], [j]) for j in cs[c0:]]
    return M, planted


def rand_block(rng, rows, cols, entry, dense):
    """A random block; ``dense`` blocks have no zero entry, so each is one component."""
    while True:
        b = [[entry(rng) for _ in range(cols)] for _ in range(rows)]
        if not dense or all(all(row) for row in b):
            return b


SPLIT_ENTRIES = {
    "int": lambda rng: rng.choice([0, 0, 1, -1, 2, -3, 5]),
    "fraction": lambda rng: Fraction(rng.choice([0, 0, 1, -1, 2, -3, 5]), rng.randint(1, 6)),
}


@pytest.mark.parametrize("kind", sorted(SPLIT_ENTRIES))
@pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
@pytest.mark.parametrize(
    "sides, zero_rows, zero_cols",
    [
        ([(1, 1), (1, 1), (2, 2)], 0, 0),  # 1 x 1 blocks
        ([(3, 3), (1, 1), (2, 2)], 0, 0),
        ([(2, 2), (3, 3)], 1, 1),  # a zero row and a zero column
        ([(2, 3), (2, 1), (1, 1)], 0, 0),  # square in all, not in its blocks
        ([(1, 2), (3, 2)], 0, 0),
        ([(2, 2), (2, 2)], 0, 1),  # wide: one zero column
        ([(1, 1), (3, 3)], 2, 0),  # tall: two zero rows
    ],
)
def test_direct_sums_match_the_oracles(kind, dense, sides, zero_rows, zero_cols):
    # det over components (parity of both orders times the block dets, 0 for
    # a block that is not square) and rank summed over components, against
    # cofactor expansion and Fraction elimination of the whole matrix
    rng = random.Random(f"split/{kind}/{dense}/{sides}/{zero_rows}/{zero_cols}")
    entry = SPLIT_ENTRIES[kind]
    for _ in range(12):
        blocks = [rand_block(rng, r, c, entry, dense) for r, c in sides]
        M, planted = shuffled_sum(rng, blocks, zero_rows, zero_cols)
        parts = components(M)
        assert len(parts) >= len(planted)
        if dense:
            assert sorted(parts) == sorted(planted)
        assert rank_exact(M) == oracle.rank_fraction(M)
        if len(M) == len(M[0]):
            assert det_exact_generic(M) == det_cofactor(M)


def test_components_match_graph_search_oracle():
    rng = random.Random(2026)
    for _ in range(400):
        r, c = rng.randint(1, 8), rng.randint(0, 8)
        M = [[rng.choice([0, 0, 0, 1, Fraction(-1, 2)]) for _ in range(c)] for _ in range(r)]
        assert components(M) == oracle.components(M)


def test_components_of_empty_and_zero_matrices():
    assert components([]) == []
    assert components([[]]) == [([0], [])]
    assert components([[0, 0]]) == [([0], []), ([], [0]), ([], [1])]
    assert components([[0, 3], [0, 0], [Fraction(1, 2), 0]]) == [([0], [1]), ([1], []), ([2], [0])]
    assert det_exact_generic([[0]]) == 0 and rank_exact([[0]]) == 0
    # the pattern is read before any kernel checks the rows: unchecked,
    # rank_exact split the first into two summands of rank 1, and the second
    # overflowed a column mask
    for ragged in ([[0, 1], [1]], [[1], [0, 1]]):
        with pytest.raises(ValueError, match="unequal length"):
            components(ragged)
        with pytest.raises(ValueError, match="unequal length"):
            rank_exact(ragged)


def test_sparse_certificate_takes_the_zero_entry_bareiss_step():
    # one component whose first pivot column has zeros below the pivot, so
    # Bareiss scales those rows instead of forming cross products
    H = certificates.to_hessian(certificates.load("invertible-4-8")).rows
    assert len(components(H)) == 1
    assert sum(row[0] == 0 for row in H) > len(H) // 2
    d = det_exact_generic(H)
    assert d != 0 and d == oracle.det_fraction(H)
    M, _ = shuffled_sum(random.Random(26), [H, [[3]], [[1, 2], [3, 4]]])
    assert det_exact_generic(M) == oracle.det_fraction(M)
    assert abs(det_exact_generic(M)) == abs(d * 3 * -2)


# One draw in three is an exact zero, so pivots are often missing and rows swap.
scalars = st.one_of(st.just(0), st.integers(-9, 9), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)))


@st.composite
def matrix_pairs(draw, entries=scalars):
    """(M, P, width): M square half the time, often rank-deficient (a product
    through a narrower middle), and P = C * M for a random C, so P spans a
    subspace of M's row space and often all of it."""
    rows = draw(st.integers(0, 7))
    cols = max(rows, 1) if draw(st.booleans()) else draw(st.integers(1, 7))

    def mat(r, c):
        return [[draw(entries) for _ in range(c)] for _ in range(r)]

    if draw(st.booleans()):
        inner = draw(st.integers(0, min(rows, cols)))
        M = mat_mul(mat(rows, inner), mat(inner, cols)) if inner else [[0] * cols for _ in range(rows)]
    else:
        M = mat(rows, cols)
    P = mat_mul(mat(draw(st.integers(1, 7)), rows), M) if rows else []
    return M, P, cols


@settings(max_examples=150, deadline=None)
@given(matrix_pairs())
def test_integer_kernel_matches_fraction_oracle(pair):
    M, P, width = pair
    assert rank_fraction(M) == oracle.rank_fraction(M)
    assert span_equal(M, P) == oracle.span_equal(M, P)
    extra = P + [[1] * width]
    assert span_equal(M, extra) == oracle.span_equal(M, extra)
    if M and len(M) == width:
        d, ref = det_exact_generic(M), det_cofactor(M)
        assert d == ref
        assert type(d) is (int if Fraction(ref).denominator == 1 else Fraction)


@st.composite
def span_cases(draw):
    """(a, b, cols) for span_equal, one of six kinds: two products through the
    same inner dimension (equal rank, spans often different), b = C * a with
    fewer rows than a (inside span(a), often of lower rank), the same with
    a and b swapped, repeated rows, an empty family, and rows as mappings
    keyed by column, with explicit zeros."""
    kind = draw(st.sampled_from(["equal-rank", "b-inside", "a-inside", "repeated", "empty", "mapping"]))
    cols, inner = draw(st.integers(1, 6)), draw(st.integers(1, 5))

    def mat(r, c):
        return [[draw(scalars) for _ in range(c)] for _ in range(r)]

    a = mat_mul(mat(draw(st.integers(1, 6)), inner), mat(inner, cols))
    if kind == "equal-rank":
        b = mat_mul(mat(len(a), inner), mat(inner, cols))
    elif kind in ("b-inside", "a-inside"):
        b = mat_mul(mat(draw(st.integers(1, max(1, len(a) - 1))), len(a)), a)
        if kind == "a-inside":
            a, b = b, a
    elif kind == "repeated":
        a += draw(st.lists(st.sampled_from(a), min_size=1, max_size=3))
        b = mat_mul(mat(draw(st.integers(1, 6)), len(a)), a)
        b += draw(st.lists(st.sampled_from(b), min_size=1, max_size=3))
    elif kind == "empty":
        a, b = draw(st.sampled_from([([], []), ([], a), (a, []), ([], [[0] * cols])]))
    else:
        b = mat_mul(mat(draw(st.integers(1, 6)), len(a)), a)
        a, b = ([dict(enumerate(r)) for r in rows] for rows in (a, b))
    return a, b, cols


@settings(max_examples=300, deadline=None, derandomize=True)
@given(span_cases())
@example(([[1, 0]], [[0, 1]], 2))  # equal rank, different spans
@example(([[1, 0], [0, 1]], [[1, 1]], 2))  # b inside span(a), lower rank
@example(([[2, 2]], [[1, 0], [0, 1]], 2))  # a inside span(b)
@example(([[1, 2], [1, 2], [2, 4]], [[Fraction(1, 2), 1]], 2))  # repeated rows
@example(([], [[0, 0]], 2))
@example(([[0, 1]], [], 2))
@example(([{0: 1, 1: 0}], [{1: 0, 0: Fraction(3)}], 2))  # mappings
def test_span_equal_matches_fraction_oracle(case):
    a, b, cols = case

    def dense(rows):
        return [[r.get(j, 0) for j in range(cols)] if isinstance(r, dict) else r for r in rows]

    assert span_equal(a, b) == oracle.span_equal(dense(a), dense(b))


@st.composite
def sparse_row_pairs(draw):
    """(keys, a, b): two families of rows keyed by 2-element multiindices,
    with explicit zero values and empty rows; b repeats some rows of a,
    rescaled, so the spans are often equal."""
    keys = enumerate_indices(2, draw(st.integers(2, 5)))
    row = st.dictionaries(st.sampled_from(keys), scalars, max_size=len(keys))
    a = draw(st.lists(row, max_size=6))
    if a:
        a += draw(st.lists(st.sampled_from(a), max_size=2))
        picked = draw(st.lists(st.sampled_from(a), max_size=len(a)))
        scale = draw(st.sampled_from([1, -2, Fraction(3, 4)]))
        b = [{I: scale * c for I, c in r.items()} for r in picked]
    else:
        b = []
    b += draw(st.lists(row, max_size=2 if draw(st.booleans()) else 0))
    return keys, a, b


@settings(max_examples=150, deadline=None)
@given(sparse_row_pairs())
def test_sparse_rows_match_dense_fraction_oracle(triple):
    keys, a, b = triple

    def dense(rows):
        return [[r.get(I, 0) for I in keys] for r in rows]

    assert rank_fraction(a) == oracle.rank_fraction(dense(a))
    assert rank_fraction(b) == oracle.rank_fraction(dense(b))
    assert span_equal(a, b) == oracle.span_equal(dense(a), dense(b))


# Denominators prime to every modulus below, so each entry has a residue.
mod_scalars = st.one_of(
    st.just(0), st.integers(-9, 9), st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 5, 11, 13]))
)


# 2**64 - 59, the largest prime that ``det --mod`` accepts
P64 = 18446744073709551557


@settings(max_examples=200, deadline=None)
# 1,000,003 and 2**61 - 1 give Barrett factors mu = 2**e // p of other lengths
@given(matrix_pairs(mod_scalars), st.sampled_from([2, 3, 7, 1_000_003, WORD_PRIMES[0], 2**61 - 1, P64]))
def test_mod_p_kernel_matches_dense_oracle(pair, p):
    M, _, width = pair
    assert rank_mod(M, p) == oracle.rank_mod(M, p)
    if len(M) == width or not M:
        d = det_mod(M, p)
        assert d == oracle.det_mod(M, p)
        assert d == scalar_mod(det_exact_generic(M), p)
    else:
        with pytest.raises(ValueError):
            det_mod(M, p)


@pytest.mark.parametrize("p", [2, 2**31 - 1, P64])
@pytest.mark.parametrize("rows,cols", [(49, 49), (64, 64), (49, 60), (60, 49)])
def test_mod_p_kernel_carry_bound_on_wide_matrices(rows, cols, p):
    """M[i][j] = -1 - min(i, j) mod p.  Step t pivots on row t without a swap;
    there every remaining row has leading entry p - 1 and the pivot row is
    all p - 1, so every multiplier and every entry of the reduced pivot row
    is p - 1, and each step adds the largest product (p-1)**2 to every slot
    that the packed kernel leaves unreduced.  Left unreduced, each entry
    v = -1 - min(i, j) starts its slot at v + p*ceil(2**63 / p), just under
    the 2**63 + p that the slot bound allows for a packed entry."""
    for M in (
        [[(-1 - min(i, j)) % p for j in range(cols)] for i in range(rows)],
        [[-1 - min(i, j) for j in range(cols)] for i in range(rows)],
    ):
        assert rank_mod(M, p) == oracle.rank_mod(M, p) == min(rows, cols)
        if rows == cols:
            assert det_mod(M, p) == oracle.det_mod(M, p) == (-1) ** rows % p


# signed 64-bit edges, ints past them, and a Fraction, so that some rows
# pack directly and others are reduced entry by entry
PACK_EDGES = (
    -(1 << 63), (1 << 63) - 1, (1 << 63) + 1, -(1 << 63) - 1, 1 << 80, -(1 << 80), Fraction(-7, 5), -1, 0, 1,
)


@pytest.mark.parametrize("p", [2, 3, WORD_PRIMES[0], 2**61 - 1, P64])
def test_mod_p_kernel_packs_64_bit_edges_and_rows_reduced_entry_by_entry(p):
    rng = random.Random(f"pack-{p}")
    in_range = [v for v in PACK_EDGES if type(v) is int and -(1 << 63) <= v < 1 << 63]
    for n in (1, 2, 5, 8):
        for _ in range(6):
            M = [[rng.choice(PACK_EDGES) for _ in range(n)] for _ in range(n)]
            M[0] = [rng.choice(in_range) for _ in range(n)]  # one row that packs directly
            assert det_mod(M, p) == oracle.det_mod(M, p) == scalar_mod(det_exact_generic(M), p)
            assert rank_mod(M, p) == oracle.rank_mod(M, p)
            wide = M + [[rng.choice(in_range) for _ in range(n)]]
            assert rank_mod(wide, p) == oracle.rank_mod(wide, p)


def test_mod_p_kernel_rejects_a_modulus_past_64_bits():
    with pytest.raises(ValueError, match="below 2\\*\\*64"):
        det_mod([[1]], (1 << 64) + 13)


def undershooting_matrix(p, n):
    """M = L * U over GF(p), L all ones on and below the diagonal and U unit
    upper triangular: det M = 1, step t pivots on row t, and every multiplier
    is p - 1.  Above the diagonal, column j holds the residues that give the
    unreduced slot x of each pivot row the largest Barrett remainder
    x - p * (x * mu >> e), which lies in [p, 2p) when the quotient falls one
    short.  Kept unreduced, such remainders grow the slots until x * mu
    carries into the next slot."""
    e = ((1 << 63) + p + n * (p - 1) ** 2).bit_length()
    mu = (1 << e) // p
    cols = []
    for j in range(n):
        acc, col = 0, []
        for _ in range(j):
            rems = [x - p * (x * mu >> e) for x in range((p - 1) * acc, (p - 1) * acc + p)]
            col.append(max(range(p), key=rems.__getitem__))
            acc += rems[col[-1]]
        cols.append(col + [((col[-1] if col else 0) + 1) % p] * (n - j))
    return [list(row) for row in zip(*cols)]


@pytest.mark.parametrize("p, n", [(263, 15), (1231, 22)])
def test_mod_p_kernel_reduces_the_pivot_row_fully(p, n):
    M = undershooting_matrix(p, n)
    assert oracle.det_mod(M, p) == 1
    assert det_mod(M, p) == 1 and rank_mod(M, p) == n


@pytest.mark.parametrize("p", [WORD_PRIMES[0], P64])
@pytest.mark.parametrize("k, N, zero", [(3, 6, False), (3, 7, False), (4, 8, True), (3, 9, False), (5, 10, False), (7, 14, False)])
def test_mod_p_kernel_on_assembled_hessians(k, N, zero, p):
    """The Hessians the line workloads eliminate, with (4,8)'s A34 block
    zeroed (indices meeting {1,2,3,4} in {3,4}), against the dense oracle:
    the full matrix, a rank-deficient one with a row sum appended and a
    wide half."""
    rng = random.Random(f"{k}-{N}-{zero}-{p}")
    support = [I for I in enumerate_indices(k, N) if not (zero and set(I) & {1, 2, 3, 4} == {3, 4})]
    H = assemble(ExteriorArray(k, N, {I: rng.randrange(-p, p) for I in support})).rows
    assert det_mod(H, p) == oracle.det_mod(H, p)
    i, j = rng.sample(range(len(H)), 2)
    for M in (H, H + [[x + y for x, y in zip(H[i], H[j])]], H[: len(H) // 2]):
        assert rank_mod(M, p) == oracle.rank_mod(M, p)


@pytest.mark.parametrize("p", [2, WORD_PRIMES[0], P64])
def test_mod_p_kernel_on_empty_matrices(p):
    assert rank_mod([], p) == 0 and det_mod([], p) == 1
    assert rank_mod([[]], p) == rank_mod([[], [], []], p) == 0
    with pytest.raises(ValueError):
        det_mod([[]], p)


def test_mod_p_kernel_rejects_rows_of_unequal_length():
    # rows are sliced from one flat buffer, so a short row would shift every
    # row after it: this read rank 1 where the rank over Q is 2
    M = [[1, 0], [0], [0, 1]]
    assert rank_fraction(M) == 2
    with pytest.raises(ValueError, match="unequal length"):
        rank_mod(M, 7)
    with pytest.raises(ValueError, match="unequal length"):
        det_mod([[1, 0], [0]], 7)
    with pytest.raises(ValueError, match="non-square"):
        det_mod([[1], [0, 1]], 7)
