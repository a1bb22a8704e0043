"""Coefficient arrays and the chart geometry around them.

The load-bearing check is that everything read off the translated array
(the value, the gradient, criticality) agrees with the expanded chart
polynomial and the minor expansion in ``tests/exterior_oracle.py``: routes
that share no code with ``act_translation``, which pushes coefficients by
transvections.  The Cauchy-Binet sum over the minors of X on Fractions
pins the exact value and type of every coefficient, on dense arrays and on
sparse arrays wide enough that most columns hold no key.
"""

import random
import re
from fractions import Fraction
from operator import is_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exterior_oracle
from blockhess import exterior
from blockhess.exterior import ChartPoint, ExteriorArray, act_translation, gradient, is_critical
from blockhess.hessian import assemble, assemble_dual
from blockhess.multiindex import enumerate_indices, first_index, is_valid_index, last_index
from blockhess.ring import MultiPoly
from exterior_oracle import star
from ring_oracle import evaluate


def rand_array(rng, k, N, lo=-4, hi=4):
    return ExteriorArray(k, N, {I: rng.randint(lo, hi) for I in enumerate_indices(k, N)})


def rand_point(rng, k, N, lo=-3, hi=3):
    return ChartPoint.from_rows(
        k, N, [[Fraction(rng.randint(lo, hi)) for _ in range(N - k)] for _ in range(k)]
    )


def _nabla_membership(A, J):
    """True iff a_I = 0 for every I in the star of J: the chart-free
    criticality test at the coordinate point of J."""
    return all(A.coeffs.get(I, 0) == 0 for I in star(tuple(J), A.N))


def test_array_access_resolves_signs():
    A = ExteriorArray(3, 6, {(1, 2, 4): 5})
    assert A.get((1, 2, 4)) == 5
    assert A.get((2, 1, 4)) == -5
    assert A.get((4, 1, 2)) == 5
    assert A.get((1, 1, 4)) == 0
    assert A.get((1, 2, 3)) == 0


def test_array_json_round_trip_and_validation():
    rng = random.Random(1)
    A = rand_array(rng, 3, 7)
    B = ExteriorArray.from_json_dict(exterior_oracle.array_to_json_dict(A))
    assert B.k == A.k and B.N == A.N
    assert B.coeffs == A.coeffs
    bad = exterior_oracle.array_to_json_dict(A)
    bad["entries"][0]["I"] = [2, 1, 3]
    with pytest.raises(ValueError):
        ExteriorArray.from_json_dict(bad)


class KeyTuple(tuple):
    """A tuple subclass: accepted as a key, stored as the plain tuple."""


def array_keys(k, N):
    """Valid keys and near misses: float or Fraction entries that hash equal
    to a valid key, one float in the last position, True for 1, tuple
    subclasses, wrong lengths, unsorted or repeated entries, entries out of
    range, and keys that are not tuples at all."""
    valid = st.lists(st.integers(1, N), min_size=k, max_size=k, unique=True).map(sorted).map(tuple)
    entry = st.one_of(st.integers(-1, N + 1), st.booleans())
    return st.one_of(
        valid,
        valid.map(lambda I: tuple(map(float, I))),
        valid.map(lambda I: tuple(map(Fraction, I))),
        valid.map(lambda I: I[:-1] + (float(I[-1]),)),
        valid.map(lambda I: tuple(True if v == 1 else v for v in I)),
        valid.map(KeyTuple),
        valid.map(lambda I: (0,) + I[1:]),
        valid.map(lambda I: I[:-1] + (N + 1,)),
        st.lists(st.integers(1, N), max_size=k + 1).map(tuple),
        st.lists(entry, min_size=k, max_size=k).map(tuple),
        st.integers(1, N),
    )


array_coeffs = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
    st.builds(MultiPoly.const, st.just(2), st.integers(-2, 2)),
    st.builds(MultiPoly.variable, st.integers(0, 1), st.just(2)),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_array_construction_matches_key_by_key_check(data):
    k = data.draw(st.integers(1, 4))
    N = data.draw(st.integers(k, 7))
    coeffs = dict(data.draw(st.lists(st.tuples(array_keys(k, N), array_coeffs), max_size=8)))
    try:
        expected = exterior_oracle.checked_coeffs(k, N, coeffs)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            ExteriorArray(k, N, coeffs)
        assert str(got.value) == str(exc)
        assert not all(
            isinstance(I, tuple) and is_valid_index(tuple(I), k, N) and bool not in map(type, I) for I in coeffs
        )
        return
    assert all(is_valid_index(tuple(I), k, N) for I in coeffs)
    A = ExteriorArray(k, N, coeffs)
    assert list(A.coeffs.items()) == list(expected.items())
    assert all(type(I) is tuple for I in A.coeffs)


@pytest.mark.parametrize(
    "coeffs",
    [{(True, 2): 1}, {(1, 3): 1, (True, 4): 0, (True, 2): 5}, {(2, 3): 1, (True, 3): 1}],
    ids=["alone", "third", "second"],
)
def test_bool_index_entry_is_rejected_on_the_all_keys_path(monkeypatch, coeffs):
    # every key passes the all-keys check, so no key-by-key check runs
    monkeypatch.setattr(exterior, "is_valid_index", None)
    first = next(I for I in coeffs if I[0] is True)
    with pytest.raises(ValueError, match=re.escape(f"key {first} holds a bool entry")):
        ExteriorArray(2, 4, coeffs)


@pytest.mark.parametrize(
    "coeffs",
    [{KeyTuple((1, 3)): 1, (True, 2): 1}, {(True, 3): 1, (2.5, 4): 1}, {(True, 3): 1, (1, 2, 3): 0}],
    ids=["subclass", "float", "length"],
)
def test_bool_index_entry_is_rejected_on_the_key_by_key_path(coeffs):
    assert not exterior._all_valid_tuples(coeffs.keys(), 2, 4)
    first = next(I for I in coeffs if I[0] is True)
    with pytest.raises(ValueError, match=re.escape(f"key {first} holds a bool entry")):
        ExteriorArray(2, 4, coeffs)


def holds_memo(keys, k, N):
    """Is the constructor's key memo exactly the key objects ``keys`` at (k, N)?"""
    memo_k, memo_N, memo = exterior._last_valid
    return (memo_k, memo_N) == (k, N) and len(memo) == len(keys) and all(map(is_, memo, keys))


@pytest.mark.parametrize("k, N", [(3, 5), (2, 6)])
def test_key_memo_rechecks_the_same_keys_at_another_shape(k, N):
    keys = [(1, 2, 3), (1, 2, 6)]
    ExteriorArray(3, 6, dict.fromkeys(keys, 1))
    assert holds_memo(keys, 3, 6)
    bad = keys[1] if k == 3 else keys[0]
    with pytest.raises(ValueError, match=re.escape(f"key {bad} is not a sorted multiindex for (k,N)=({k},{N})")):
        ExteriorArray(k, N, dict.fromkeys(keys, 1))


def test_key_memo_compares_key_objects_not_values():
    ints = [(1, 2, 3), (1, 2, 4), (2, 3, 4)]
    ExteriorArray(3, 4, dict.fromkeys(ints, 1))
    floats = {tuple(map(float, I)): 1 for I in ints}
    assert floats == dict.fromkeys(ints, 1)  # (1, 2, 3) == (1.0, 2.0, 3.0), with equal hashes
    with pytest.raises(ValueError, match="is not a sorted multiindex"):
        ExteriorArray(3, 4, floats)


def test_key_memo_keeps_the_last_set_that_passed():
    good = [(1, 2), (1, 4), (3, 4)]
    ExteriorArray(2, 4, dict.fromkeys(good, 1))
    A = ExteriorArray(2, 4, {KeyTuple((1, 2)): 1, (2, 3): 1})  # accepted key by key
    assert list(A.coeffs) == [(1, 2), (2, 3)]
    with pytest.raises(ValueError):
        ExteriorArray(2, 4, {(1, 2): 1, (2, 1): 1})
    assert holds_memo(good, 2, 4)


def test_key_memo_hit_copies_and_drops_zero_coefficients(monkeypatch):
    keys = list(enumerate_indices(2, 5))
    ExteriorArray(2, 5, dict.fromkeys(keys, 1))
    monkeypatch.setattr(exterior, "_all_valid_tuples", None)  # a hit never calls the check
    coeffs = {I: i % 3 for i, I in enumerate(keys)}
    A = ExteriorArray(2, 5, coeffs)
    assert A.coeffs == {I: c for I, c in coeffs.items() if c} and 0 not in A.coeffs.values()
    coeffs[keys[1]] = 5
    assert A.coeffs[keys[1]] == 1
    B = ExteriorArray(2, 5, dict.fromkeys(keys, 2))
    assert B.coeffs == dict.fromkeys(keys, 2) and B.coeffs is not A.coeffs


def test_key_memo_holds_only_the_last_key_set():
    big = list(enumerate_indices(4, 9))
    ExteriorArray(4, 9, dict.fromkeys(big, 1))
    assert holds_memo(big, 4, 9)
    small = [(1, 2), (2, 3)]
    ExteriorArray(2, 3, dict.fromkeys(small, 1))
    assert exterior._last_valid == (2, 3, tuple(small)) and holds_memo(small, 2, 3)


@pytest.mark.parametrize("k,N", [(2, 5), (3, 6), (3, 7), (4, 7)])
def test_evaluate_form_matches_expanded_polynomial(k, N):
    rng = random.Random(f"{k}:{N}")
    for _ in range(6):
        A = rand_array(rng, k, N)
        X = rand_point(rng, k, N)
        poly = exterior_oracle.dehomogenized_polynomial(A)
        value = exterior_oracle.evaluate_form(A, X)
        assert evaluate(poly, exterior_oracle.chart_coords(X)) == value
        # F(A, X) is the coefficient b_If of the translated array
        assert act_translation(A, X).get(first_index(k, N)) == value


def test_dehomogenized_polynomial_on_symbolic_chart_is_identity_route():
    # substituting the symbolic chart into evaluate_form reproduces the
    # polynomial that dehomogenized_polynomial builds directly
    A = ExteriorArray(2, 4, {(1, 2): 3, (1, 3): 2, (3, 4): 1, (2, 4): -1})
    # (from_rows takes exact numbers only, so the symbolic chart is built directly)
    var = exterior_oracle.var_index
    S = ChartPoint(2, 4, tuple(tuple(MultiPoly.variable(var(p, t, 2, 4), 4) for t in (3, 4)) for p in (1, 2)))
    assert exterior_oracle.evaluate_form(A, S) == exterior_oracle.dehomogenized_polynomial(A)


def test_plucker_minor_and_frame_minor():
    X = ChartPoint.from_rows(2, 4, [[1, 2], [3, 4]])
    F = exterior_oracle.frame(X)
    minors = {(1, 2): 1, (3, 4): 1 * 4 - 2 * 3, (1, 3): 3, (2, 3): -1}  # (1, 3): row 2 entry at col 3
    for I, m in minors.items():
        assert exterior_oracle.frame_minor(F, I) == m
        # the translated unit array reads the Pluecker coordinate at If
        assert act_translation(ExteriorArray(2, 4, {I: 1}), X).get((1, 2)) == m


@st.composite
def chart_cases(draw):
    """(A, X) with k in 1..4 and N in k+1..k+4 (so N < 2k occurs), int or
    Fraction coefficients, the zero point or a Fraction point, and now and
    then A zeroed on the star of If, which makes it critical at 0."""
    k = draw(st.integers(1, 4))
    N = draw(st.integers(k + 1, k + 4))
    values = st.integers(-3, 3) if draw(st.booleans()) else st.fractions(-3, 3, max_denominator=4)
    keys = list(enumerate_indices(k, N))
    coeffs = dict(zip(keys, draw(st.lists(values, min_size=len(keys), max_size=len(keys)))))
    if draw(st.booleans()):
        for I in star(first_index(k, N), N):
            coeffs[I] = 0
    if draw(st.booleans()):
        X = exterior_oracle.zero_point(k, N)
    else:
        xs = st.lists(st.fractions(-2, 2, max_denominator=3), min_size=N - k, max_size=N - k)
        X = ChartPoint.from_rows(k, N, draw(st.lists(xs, min_size=k, max_size=k)))
    return ExteriorArray(k, N, coeffs), X


@settings(max_examples=60, deadline=None)
@given(chart_cases())
def test_gradient_matches_polynomial_partials(case):
    A, X = case
    k, N = A.k, A.N
    poly = exterior_oracle.dehomogenized_polynomial(A)
    B = act_translation(A, X)
    assert B.get(first_index(k, N)) == evaluate(poly, exterior_oracle.chart_coords(X))
    assert gradient(B) == exterior_oracle.gradient(A, X)
    assert is_critical(B) == exterior_oracle.is_critical(A, X)
    w = exterior_oracle.w_swap_matrix(k, N)
    assert assemble_dual(A).rows == assemble(exterior_oracle.act_gl(A, w)).rows


def test_is_critical_at_zero_iff_no_near_first_terms():
    # at X = 0 the form and its partials pick out coefficients meeting If
    # in >= k-1 entries; criticality is exactly their absence
    A_good = ExteriorArray(3, 6, {(1, 4, 5): 2, (2, 4, 6): -1})
    A_bad = ExteriorArray(3, 6, {(1, 2, 4): 1})
    assert is_critical(A_good)
    assert not is_critical(A_bad)
    assert _nabla_membership(A_good, first_index(3, 6))
    assert not _nabla_membership(A_bad, first_index(3, 6))


def test_act_translation_composes_additively():
    rng = random.Random(77)
    A = rand_array(rng, 3, 6)
    X = rand_point(rng, 3, 6)
    Y = rand_point(rng, 3, 6)
    XY = ChartPoint.from_rows(
        3, 6, [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(X.X, Y.X)]
    )
    lhs = act_translation(act_translation(A, X), Y)
    rhs = act_translation(A, XY)
    assert lhs.coeffs == rhs.coeffs
    # translate-then-evaluate agrees with evaluating at the shifted point
    Z = rand_point(rng, 3, 6)
    ZX = ChartPoint.from_rows(
        3, 6, [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(Z.X, X.X)]
    )
    assert exterior_oracle.evaluate_form(act_translation(A, X), Z) == exterior_oracle.evaluate_form(A, ZX)


ENTRY_KINDS = {
    "int": st.integers(-3, 3),
    "fraction": st.fractions(-3, 3, max_denominator=4),
    "mixed": st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)),
}


def entries(kind):
    """Values of one kind, zero about a third of the time."""
    zero = st.just(0) if kind == "int" else st.sampled_from([0, Fraction(0)])
    return st.one_of(zero, ENTRY_KINDS[kind])


@st.composite
def translation_cases(draw):
    k = draw(st.integers(1, 5))
    N = draw(st.integers(k + 1, 9))
    a_kind, x_kind = draw(st.sampled_from(sorted(ENTRY_KINDS))), draw(st.sampled_from(sorted(ENTRY_KINDS)))
    values = entries(a_kind)
    A = ExteriorArray(k, N, {I: draw(values) for I in enumerate_indices(k, N)})
    xs = entries(x_kind)
    X = ChartPoint.from_rows(k, N, [[draw(xs) for _ in range(N - k)] for _ in range(k)])
    return A, X, a_kind, x_kind


@settings(max_examples=120, deadline=None)
@given(translation_cases())
def test_act_translation_matches_polynomial_shift_oracle(case):
    A, X, a_kind, x_kind = case
    B, ref = act_translation(A, X), exterior_oracle.act_translation(A, X)
    assert B.coeffs == ref.coeffs
    types = [(type(B.coeffs[J]), type(ref.coeffs[J])) for J in B.coeffs]
    if a_kind == "fraction" or a_kind == x_kind == "int":
        assert all(t == u for t, u in types)
    else:
        # Where a partial sum of the oracle's shift cancels exactly, its
        # dict drops the Fraction term and a later int term restarts the
        # coefficient as an int; the kernel keeps Fraction(n, 1) there.
        assert all(t == u or (t, u) == (Fraction, int) for t, u in types)


def test_act_translation_value_types():
    # A coefficient is a Fraction exactly when a term with no zero factor
    # brings in a Fraction: a zero point entry adds nothing, not even its type
    one_row = ChartPoint.from_rows(1, 3, [[Fraction(0), Fraction(1, 2)]])
    B = act_translation(ExteriorArray(1, 3, {(1,): 2, (2,): 3}), one_row)
    assert [(J, type(c)) for J, c in sorted(B.coeffs.items())] == [((1,), int), ((2,), int)]
    # b_12 = 1 + (1 + 1 - 2): the Fraction terms cancel and the value
    # stays a Fraction; the oracle's shift drops the cancelled sum and
    # returns an int
    A = ExteriorArray(2, 4, {(1, 2): 1, (1, 3): 1, (1, 4): 1, (3, 4): 1})
    X = ChartPoint.from_rows(2, 4, [[Fraction(-1), Fraction(1)], [Fraction(1), Fraction(1)]])
    b, ref = act_translation(A, X).coeffs[(1, 2)], exterior_oracle.act_translation(A, X).coeffs[(1, 2)]
    assert b == ref == 1 and type(b) is Fraction and type(ref) is int


# Pairwise coprime, so the common denominators of a and X run up to ~5 * 10^21.
DENOMINATORS = (2, 3, 125, 7, 999961, 999979, 999983)


def exact_values(kind):
    """ints, Fractions (Fraction(n, 1) included) or both; zero of the kind's type."""
    ints = st.integers(-9, 9)
    fractions = st.one_of(st.builds(Fraction, ints, st.sampled_from(DENOMINATORS)), ints.map(Fraction))
    return {
        "int": (st.just(0), ints),
        "fraction": (st.just(Fraction(0)), fractions),
        "mixed": (st.sampled_from([0, Fraction(0)]), st.one_of(ints, fractions)),
    }[kind]


@st.composite
def exact_translation_cases(draw):
    k = draw(st.integers(1, 5))
    N = draw(st.integers(k, 9))  # N = k: the chart point has empty rows
    kinds = st.sampled_from(sorted(ENTRY_KINDS))
    zero, values = exact_values(draw(kinds))
    coeffs = {} if draw(st.booleans()) and draw(st.booleans()) else {
        I: draw(st.one_of(zero, values)) for I in enumerate_indices(k, N)
    }
    zero, values = exact_values(draw(kinds))
    entry = draw(st.sampled_from([zero, st.one_of(zero, values), values]))  # all, partly or seldom zero
    X = ChartPoint.from_rows(k, N, [[draw(entry) for _ in range(N - k)] for _ in range(k)])
    return ExteriorArray(k, N, coeffs), X


@settings(max_examples=200, deadline=None)
@given(exact_translation_cases())
def test_act_translation_matches_fraction_kernel_in_value_and_type(case):
    # a sum over the minors of X with every product taken in Fraction
    # arithmetic: equal coefficients, in the same order, of the same type
    A, X = case
    B, ref = act_translation(A, X), exterior_oracle.act_translation_fraction(A, X)
    assert B.coeffs == ref.coeffs
    assert [(J, type(c)) for J, c in B.coeffs.items()] == [(J, type(c)) for J, c in ref.coeffs.items()]


@pytest.mark.parametrize(
    "shape",
    # a point of another (k, N) than the (3, 7) array; then (2, 4) points
    # built around from_rows with a short row, a long row and a third row,
    # which ChartPoint itself rejects
    [(3, 8), (2, 7), (3, 6), (2, 4, ((1,), (0, 1))), (2, 4, ((1, 2, 3), (0, 1))), (2, 4, ((1, 2), (0, 1), (5, 5)))],
)
def test_act_translation_rejects_a_point_of_another_shape(shape):
    k, N, *rows = shape
    if rows:
        with pytest.raises(ValueError, match="chart point"):
            ChartPoint(k, N, rows[0])
    else:
        A = ExteriorArray(3, 7, {(1, 2, 3): 1, (1, 5, 7): 2})
        X = ChartPoint.from_rows(k, N, [[1] * (N - k) for _ in range(k)])
        with pytest.raises(ValueError, match="chart point"):
            act_translation(A, X)


@pytest.mark.parametrize("k,N", [(3, 40), (4, 20), (5, 12)])
def test_act_translation_matches_fraction_kernel_on_sparse_wide_arrays(k, N):
    # a few keys spread over many columns: most columns hold no key, and
    # the keys sit far above the low bits of their bitmasks
    rng = random.Random(f"sparse-wide:{k}:{N}")
    fractions = [Fraction(n, d) for n in (-3, -1, 1, 2) for d in (1, 2, 3)]
    for zeros, entries in ((0, fractions), (0.5, fractions), (0.5, fractions + [-2, 1, 3])):
        for _ in range(4):
            keys = {tuple(sorted(rng.sample(range(1, N + 1), k))) for _ in range(rng.randint(1, 6))}
            A = ExteriorArray(k, N, {I: rng.choice((1, -2, 3, Fraction(1, 3), Fraction(-5, 2), Fraction(4))) for I in keys})
            X = ChartPoint.from_rows(
                k, N, [[0 if rng.random() < zeros else rng.choice(entries) for _ in range(N - k)] for _ in range(k)]
            )
            B, ref = act_translation(A, X), exterior_oracle.act_translation_fraction(A, X)
            assert [(J, c, type(c)) for J, c in B.coeffs.items()] == [(J, c, type(c)) for J, c in ref.coeffs.items()]


@pytest.mark.parametrize("bad", [0.5, 1.0, MultiPoly.const(2, 1), "1", None])
def test_translation_takes_ints_and_fractions_only(bad):
    with pytest.raises(ValueError, match="int or a Fraction"):
        ChartPoint.from_rows(2, 4, [[1, bad], [0, Fraction(1, 2)]])
    # a point built around from_rows is checked where it is used
    X = ChartPoint(2, 4, ((1, bad), (0, Fraction(1, 2))))
    with pytest.raises(ValueError, match="int or a Fraction"):
        act_translation(ExteriorArray(2, 4, {(1, 2): 1}), X)
    A = ExteriorArray(2, 4, {(1, 2): 1, (1, 3): bad})
    with pytest.raises(ValueError, match="int or a Fraction"):
        act_translation(A, ChartPoint.from_rows(2, 4, [[1, 0], [0, 1]]))


@pytest.mark.parametrize("k,N", [(1, 4), (2, 5), (3, 6), (3, 7), (4, 6)])
def test_act_translation_is_lower_unipotent_gl_action(k, N):
    # [Id | y] [[Id, X], [0, Id]] = [Id | X + y], and act_gl acts through
    # rows I, cols J, so the group element is the transpose
    rng = random.Random(f"unipotent:{k}:{N}")
    for _ in range(3):
        A = ExteriorArray(k, N, {I: rng.choice((0, 1, -2, Fraction(3, 2))) for I in enumerate_indices(k, N)})
        X = ChartPoint.from_rows(k, N, [[rng.choice((0, -1, 2, Fraction(-1, 3))) for _ in range(N - k)] for _ in range(k)])
        g = [[int(i == j) for j in range(N)] for i in range(N)]
        for p in range(k):
            for t in range(k, N):
                g[t][p] = X.X[p][t - k]
        assert act_translation(A, X).coeffs == exterior_oracle.act_gl(A, g).coeffs


def test_act_gl_is_functorial_and_matches_frame_action():
    rng = random.Random(13)
    A = rand_array(rng, 2, 5)

    def rand_g(n):
        return [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]

    g, h = rand_g(5), rand_g(5)
    gh = [[sum(g[i][l] * h[l][j] for l in range(5)) for j in range(5)] for i in range(5)]
    act_gl = exterior_oracle.act_gl
    lhs = act_gl(act_gl(A, g), h)
    rhs = act_gl(A, gh)
    assert lhs.coeffs == rhs.coeffs
    # identity acts trivially
    eye = [[int(i == j) for j in range(5)] for i in range(5)]
    assert act_gl(A, eye).coeffs == A.coeffs


def test_w_swap_pulls_opposite_coefficient_to_first():
    k, N = 3, 7
    w = exterior_oracle.w_swap_matrix(k, N)
    A = ExteriorArray(k, N, {first_index(k, N): 2, last_index(k, N): 5, (1, 4, 7): 3})
    B = exterior_oracle.act_gl(A, w)
    # the translated array reads the opposite coordinate coefficient at If
    assert abs(B.get(first_index(k, N))) == 5
    # a permutation action is a signed bijection on indices
    assert len(B.coeffs) == len(A.coeffs)
    assert sorted(map(abs, B.coeffs.values())) == sorted(map(abs, A.coeffs.values()))
