"""Polynomial and prime-field layer: arithmetic laws, interpolation, and
the repeated-root detectors that the cube/square checks rely on."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ring_oracle
from ring_oracle import evaluate

from blockhess.ring import (
    MultiPoly,
    is_prime,
    lagrange_interpolate_mod,
    prime_for_trial,
    scalar_from_string,
    uni_root_structure_mod,
)


def small_poly(nvars=3, rng_terms=None):
    return st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * nvars),
        st.integers(-9, 9),
        max_size=6,
    ).map(lambda d: MultiPoly(nvars, {k: Fraction(v) for k, v in d.items()}))


@given(small_poly(), small_poly(), st.lists(st.integers(-5, 5), min_size=3, max_size=3))
@settings(max_examples=60)
def test_multipoly_ring_laws_at_points(f, g, pt):
    assert evaluate(f + g, pt) == evaluate(f, pt) + evaluate(g, pt)
    assert evaluate(f - g, pt) == evaluate(f, pt) - evaluate(g, pt)
    assert evaluate(f * g, pt) == evaluate(f, pt) * evaluate(g, pt)


def test_multipoly_constructors_and_guards():
    x = MultiPoly.variable(0, 2)
    y = MultiPoly.variable(1, 2)
    f = x * x - y * MultiPoly.const(2, 3)
    assert evaluate(f, [2, 1]) == 1
    assert MultiPoly.zero(2).is_zero()
    assert not f.is_zero()
    with pytest.raises(ValueError):
        MultiPoly(2, {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        MultiPoly.variable(2, 2)


def test_multipoly_to_str_uses_names():
    x = MultiPoly.variable(0, 2)
    y = MultiPoly.variable(1, 2)
    s = (x * y - x).to_str(["u", "v"])
    assert "u" in s and "v" in s


def test_multipoly_substitute():
    x = MultiPoly.variable(0, 2)
    y = MultiPoly.variable(1, 2)
    f = x * x + y
    g = f.substitute(1, x + MultiPoly.const(2, 1))
    assert evaluate(g, [3, 999]) == 9 + 3 + 1
    assert evaluate(f.substitute(0, 2), [999, 5]) == 4 + 5


def _normal(c):
    """An int when integral, else a Fraction: the form quotients come in."""
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


_coeffs = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)).map(_normal),
)


def polys(nvars=3, min_size=0):
    return st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * nvars), _coeffs, min_size=min_size, max_size=6
    ).map(lambda d: MultiPoly(nvars, d))


nonzero_polys = polys(min_size=1).filter(lambda g: not g.is_zero())


@given(polys(), nonzero_polys)
@settings(max_examples=150, deadline=None)
def test_exact_divide_round_trip_keeps_coefficient_types(f, g):
    q = (f * g).exact_divide(g)
    assert q == f
    assert {e: type(c) for e, c in q.terms.items()} == {e: type(c) for e, c in f.terms.items()}


@given(polys(), _coeffs.filter(lambda c: c != 0))
@settings(max_examples=60, deadline=None)
def test_exact_divide_by_a_constant_is_coefficient_wise(f, c):
    expected = MultiPoly(3, {e: _normal(Fraction(v) / c) for e, v in f.terms.items()})
    for divisor in (c, MultiPoly.const(3, c)):
        q = f.exact_divide(divisor)
        assert q == expected
        assert {e: type(v) for e, v in q.terms.items()} == {e: type(v) for e, v in expected.terms.items()}


@given(polys(), nonzero_polys.filter(lambda g: any(map(any, g.terms))))
@settings(max_examples=60, deadline=None)
def test_exact_divide_rejects_a_remainder(f, g):
    # f*g + 1 = q*g would make (q - f)*g = 1, impossible for non-constant g
    with pytest.raises(ArithmeticError):
        (f * g + 1).exact_divide(g)


def test_exact_divide_guards():
    x = MultiPoly.variable(0, 2)
    y = MultiPoly.variable(1, 2)
    with pytest.raises(ArithmeticError):
        (x * x + y).exact_divide(x)
    for zero in (0, MultiPoly.zero(2)):
        with pytest.raises(ZeroDivisionError):
            x.exact_divide(zero)
    assert MultiPoly.zero(2).exact_divide(x + y).is_zero()
    assert (x * x - y * y).exact_divide(x - y) == x + y


@pytest.mark.parametrize("j", range(4))
def test_exact_divide_rejects_one_negative_exponent(j):
    # f's total degree and every exponent but x_j's reach the divisor's, so
    # only the guard bit of x_j's packed field reports the remainder
    xs = [MultiPoly.variable(i, 4) for i in range(4)]
    f = MultiPoly.const(4, 1)
    for i, x in enumerate(xs):
        if i != j:
            f = f * x * x
    divisor = xs[0] * xs[1] * xs[2] * xs[3]
    with pytest.raises(ArithmeticError):
        f.exact_divide(divisor)
    with pytest.raises(ArithmeticError):
        (f + divisor).exact_divide(divisor)
    assert (f * divisor).exact_divide(divisor) == f


@pytest.mark.parametrize("trial", range(8))
def test_prime_for_trial_is_prime_and_distinct(trial):
    p = prime_for_trial(trial)
    assert p > 2**30
    assert all(p % q for q in range(2, 2000))
    if trial:
        assert p != prime_for_trial(trial - 1)


def test_is_prime_matches_trial_division_and_rejects_strong_pseudoprimes():
    def trial_division(n):
        return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(3000) if is_prime(n)] == [n for n in range(3000) if trial_division(n)]
    # composites that pass Miller-Rabin to the bases 2..7, 2..17 and 2..23
    assert not any(is_prime(n) for n in (3215031751, 341550071728321, 3825123056546413051))
    assert all(is_prime(q) for q in (2**31 - 1, 2**61 - 1, 2**64 - 59, 2**64 + 13))
    assert not is_prime((2**31 - 1) * (2**31 - 19))
    for n in (-1, 318665857834031151167461):
        with pytest.raises(ValueError):
            is_prime(n)


def test_lagrange_interpolation_round_trip():
    p = prime_for_trial(0)
    coeffs = [3, 0, 7, 1, p - 2, 4, 11]
    xs = list(range(len(coeffs)))
    ys = [sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p for x in xs]
    assert lagrange_interpolate_mod(xs, ys, p) == coeffs


@st.composite
def interpolation_points(draw):
    """Points with distinct arbitrary xs mod p; ys all zero half the time."""
    p = draw(st.sampled_from([2, 3, 7, 2**31 - 1]))
    xs = draw(st.lists(st.integers(-(10**12), 10**12), max_size=min(p, 14), unique_by=lambda x: x % p))
    values = st.integers(-(10**12), 10**12)
    ys = draw(st.one_of(st.just([0] * len(xs)), st.lists(values, min_size=len(xs), max_size=len(xs))))
    return xs, ys, p


@settings(max_examples=200, deadline=None)
@given(interpolation_points())
@example(([5], [3], 7))
@example(([1], [0], 2))
@example(([-4, 10**12], [9, 9], 3))
def test_lagrange_interpolation_matches_cubic_oracle(points):
    xs, ys, p = points
    coeffs = lagrange_interpolate_mod(xs, ys, p)
    assert coeffs == ring_oracle.lagrange_interpolate_mod(xs, ys, p)
    assert len(coeffs) <= len(xs) and (not coeffs or coeffs[-1])
    for x, y in zip(xs, ys):
        assert sum(c * pow(x, d, p) for d, c in enumerate(coeffs)) % p == y % p


@pytest.mark.parametrize("xs,p", [([1, 1], 7), ([1, 8], 7), ([0, 3, 2], 2)])
def test_lagrange_interpolation_rejects_repeated_points_mod_p(xs, p):
    ys = list(range(len(xs)))
    for interpolate in (lagrange_interpolate_mod, ring_oracle.lagrange_interpolate_mod):
        with pytest.raises(ValueError):
            interpolate(xs, ys, p)


def poly_from_roots_mod(roots, p):
    """Coefficients, constant term first, of prod (s - r) mod p."""
    f = [1]
    for r in roots:
        f = [(a - r * b) % p for a, b in zip([0] + f, f + [0])]
    return f


def test_uni_root_structure_mod():
    p = prime_for_trial(1)
    # (s^2 + 3 s + 5)^3 = s^6 + 9 s^5 + 42 s^4 + 117 s^3 + 210 s^2 + 225 s + 125
    coeffs = [125, 225, 210, 117, 42, 9, 1]
    g = uni_root_structure_mod(coeffs, 3, p)
    assert g is not None
    assert g == [5, 3, 1]
    coeffs[0] = (coeffs[0] + 1) % p
    assert uni_root_structure_mod(coeffs, 3, p) is None

    cube = [7 * c % p for c in poly_from_roots_mod([1, 1, 1, -2, -2, -2], p)]
    assert uni_root_structure_mod(cube, 3, p) == poly_from_roots_mod([1, -2], p)
    square = poly_from_roots_mod([2, 2, 5, 5], p)
    assert uni_root_structure_mod(square, 2, p) == poly_from_roots_mod([2, 5], p)
    assert uni_root_structure_mod(square, 3, p) is None
    assert uni_root_structure_mod(poly_from_roots_mod([1, 1, 2, 2, 2, 3], p), 3, p) is None
    # degree not divisible by r
    assert uni_root_structure_mod(poly_from_roots_mod([1, 2], p), 3, p) is None
    assert uni_root_structure_mod([0, 0], 2, p) == []


@pytest.mark.parametrize("text,value", [("3", Fraction(3)), ("-7/2", Fraction(-7, 2)), ("0", 0)])
def test_scalar_string_round_trip(text, value):
    s = scalar_from_string(text)
    assert s == value
    assert scalar_from_string(str(s)) == s


@pytest.mark.parametrize("bad", ["1/0", "-3/0", 5, None, ["1"], "x", "1/2/3"])
def test_scalar_from_string_rejects_with_value_error(bad):
    with pytest.raises(ValueError):
        scalar_from_string(bad)
