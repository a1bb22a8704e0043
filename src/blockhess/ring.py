"""Exact coefficient arithmetic.

Scalars are arbitrary-precision ints, exact ``fractions.Fraction`` values,
or prime-field residues (plain ints in [0, p) with the modulus passed
explicitly).  On top of that sit a sparse multivariate polynomial type
(``MultiPoly``, used for symbolic Hessian entries) and helpers for dense
univariate polynomials mod p, kept as coefficient lists (used for line
restrictions).

Polynomial products and exact quotients run on packed exponent vectors
(Monagan and Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007): a monomial is one int holding a
field per variable, x0 highest, under a top field holding the total
degree.  A field is ``w`` bits wide, ``w`` one more than the bit length of
the largest total degree the computation can reach, and its top bit is a
guard that stays clear.  So int order is graded-lex order, a monomial
product is one ``+``, and a quotient exponent is ``(r | G) - d`` for the
mask G of guard bits: a cleared guard bit marks an exponent of d that
exceeds r's, so the division is not exact.  ``MultiPoly.__mul__``,
``MultiPoly.exact_divide`` and ``linalg.det_bareiss`` share the private
``_mul`` and ``_divide`` below; the division keeps one remainder dict,
updated in place, and takes its leading terms from a max-heap, as in
Monagan and Pearce, "Sparse polynomial division using a heap" (J. Symb.
Comput. 46, 2011).

No floating point anywhere; every result in this module is exact.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

Scalar = int | Fraction

#: Word-sized primes just below 2^31, used for identity testing.  A trial
#: with total degree d has failure probability <= d/p per prime.
WORD_PRIMES: tuple[int, ...] = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549,
    2147483543, 2147483497, 2147483489, 2147483477, 2147483423, 2147483399,
    2147483353, 2147483323, 2147483269, 2147483249, 2147483237, 2147483179,
    2147483171, 2147483137, 2147483123, 2147483077, 2147483069, 2147483059,
)


def prime_for_trial(trial: int) -> int:
    """Deterministic prime selection: trial i uses WORD_PRIMES[i mod len]."""
    return WORD_PRIMES[trial % len(WORD_PRIMES)]


#: The first 12 primes.  As Miller-Rabin bases they decide primality exactly
#: for every n below 318665857834031151167461 (about 3.2 * 10**23 > 2**64).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 0 <= n < 3.2 * 10**23."""
    if not 0 <= n < _MR_LIMIT:
        raise ValueError(f"is_prime is exact only on [0, {_MR_LIMIT}), got {n}")
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n < 2:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def scalar_from_string(s: str) -> Scalar:
    """Parse a decimal string, optionally 'a/b' for rationals; ValueError
    for anything else, a zero denominator included."""
    if not isinstance(s, str):
        raise ValueError(f"a scalar must be a decimal string, got {s!r}")
    s = s.strip()
    if "/" in s:
        num, den = map(int, s.split("/", 1))
        if den == 0:
            raise ValueError(f"zero denominator in {s!r}")
        return Fraction(num, den)
    return int(s)


def scalar_mod(x: Scalar, p: int) -> int:
    """Reduce an exact scalar into [0, p)."""
    if isinstance(x, Fraction):
        den = x.denominator % p
        if den == 0:
            raise ZeroDivisionError(f"denominator of {x} vanishes mod {p}")
        return (x.numerator % p) * pow(den, -1, p) % p
    return x % p


# ---------------------------------------------------------------------------
# sparse multivariate polynomials


def _grlex_key(exp: tuple[int, ...]) -> tuple:
    # graded lex: total degree first, then lexicographic on the exponent vector
    return (sum(exp), exp)


class MultiPoly:
    """Sparse multivariate polynomial: exponent vector -> nonzero coefficient.

    Immutable by convention; all operations return new instances.  The
    canonical term order is graded lex (total degree, then lexicographic
    exponent vector), descending.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], Scalar] | None = None):
        self.nvars = nvars
        self.terms: dict[tuple[int, ...], Scalar] = {}
        if terms:
            for exp, c in terms.items():
                if c != 0:
                    if len(exp) != nvars:
                        raise ValueError(f"exponent vector {exp} has arity {len(exp)}, expected {nvars}")
                    self.terms[exp] = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, c: Scalar) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "MultiPoly":
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range for arity {nvars}")
        exp = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {exp: 1})

    # -- basic structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Scalar]]:
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultiPoly):
            if self.nvars != other.nvars:
                return False
            if len(self.terms) != len(other.terms):
                return False
            return all(other.terms.get(e, 0) == c for e, c in self.terms.items())
        if isinstance(other, (int, Fraction)):
            return self == MultiPoly.const(self.nvars, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"MultiPoly({self.to_str()})"

    def to_str(self, names: Sequence[str] | None = None) -> str:
        if not self.terms:
            return "0"
        if names is None:
            names = [f"x{i}" for i in range(self.nvars)]
        parts = []
        for exp, c in self.sorted_terms():
            factors = [
                names[i] if e == 1 else f"{names[i]}^{e}"
                for i, e in enumerate(exp)
                if e
            ]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(str(c) + "*" + "*".join(factors))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValueError(f"arity mismatch: {self.nvars} vs {other.nvars}")
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(self.nvars, other)
        raise TypeError(f"cannot coerce {other!r} to MultiPoly")

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            s = terms.get(exp, 0) + c
            if s == 0:
                terms.pop(exp, None)
            else:
                terms[exp] = s
        out = MultiPoly(self.nvars)
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        out = MultiPoly(self.nvars)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other) -> "MultiPoly":
        return self + -self._coerce(other)

    def __rsub__(self, other) -> "MultiPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return MultiPoly.zero(self.nvars)
            out = MultiPoly(self.nvars)
            out.terms = {e: c * other for e, c in self.terms.items()}
            return out
        other = self._coerce(other)
        w = _field_width(_degree(self.terms) + _degree(other.terms))
        out = MultiPoly(self.nvars)
        out.terms = _unpack(_mul(_pack(self.terms, w), _pack(other.terms, w)), self.nvars, w)
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power")
        result = MultiPoly.const(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- substitution --------------------------------------------------------

    def substitute(self, i: int, value: "MultiPoly | Scalar") -> "MultiPoly":
        """Substitute variable i by a scalar or a same-arity polynomial."""
        if isinstance(value, (int, Fraction)):
            value = MultiPoly.const(self.nvars, value)
        value = self._coerce(value)
        out = MultiPoly.zero(self.nvars)
        powers: dict[int, MultiPoly] = {0: MultiPoly.const(self.nvars, 1)}
        for exp, c in self.terms.items():
            e = exp[i]
            if e not in powers:
                powers[e] = value**e
            rest = tuple(0 if j == i else v for j, v in enumerate(exp))
            out = out + powers[e] * MultiPoly(self.nvars, {rest: c})
        return out

    def translate(self, point: Sequence[Scalar]) -> "MultiPoly":
        """Compose with the shift x_i -> x_i + point[i] (exact).

        The library no longer calls it: ``exterior.act_translation`` pushes
        coefficients by transvections instead.  It backs the reference translation in
        ``tests/exterior_oracle.py``, and ``perfbench/tracer.py`` wraps it.
        """
        out = self
        for i, v in enumerate(point):
            if v != 0:
                shifted = MultiPoly(self.nvars, {
                    tuple(1 if j == i else 0 for j in range(self.nvars)): 1,
                    (0,) * self.nvars: v,
                })
                out = out.substitute(i, shifted)
        return out

    def exact_divide(self, divisor: "MultiPoly | Scalar") -> "MultiPoly":
        """Exact division; raises ArithmeticError if the division leaves a remainder.

        The library no longer calls it: ``linalg.det_bareiss`` divides on
        packed terms directly.  ``perfbench/tracer.py`` wraps it by name.
        A quotient coefficient is an int exactly when it is integral.
        """
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        w = _field_width(max(_degree(self.terms), _degree(divisor.terms)))
        guard = _guard_bits(self.nvars, w)
        out = MultiPoly(self.nvars)
        out.terms = _unpack(_divide(_pack(self.terms, w), _pack(divisor.terms, w), guard), self.nvars, w)
        return out


# ---------------------------------------------------------------------------
# packed monomials: {packed exponent int: nonzero coefficient}


def _degree(terms: dict[tuple[int, ...], Scalar]) -> int:
    """Largest total degree of the terms (0 for none)."""
    return max(map(sum, terms), default=0)


def _field_width(degree: int) -> int:
    """Bits per field for monomials of total degree <= ``degree``: its bit
    length plus the guard bit above."""
    return degree.bit_length() + 1


def _guard_bits(nvars: int, w: int) -> int:
    """The top bit of each of the nvars + 1 fields of width ``w``."""
    return ((1 << (nvars + 1) * w) - 1) // ((1 << w) - 1) << (w - 1)


def _pack(terms: dict[tuple[int, ...], Scalar], w: int) -> dict[int, Scalar]:
    """Each exponent tuple as one int: total degree on top, then x0 .. x_last."""
    out = {}
    for exp, c in terms.items():
        m = sum(exp)
        for e in exp:
            m = m << w | e
        out[m] = c
    return out


def _unpack(terms: dict[int, Scalar], nvars: int, w: int) -> dict[tuple[int, ...], Scalar]:
    """Back to exponent tuples of length ``nvars``; the degree field is dropped."""
    mask = (1 << w) - 1
    shifts = range((nvars - 1) * w, -1, -w)
    return {tuple([m >> s & mask for s in shifts]): c for m, c in terms.items()}


def _mul(f: dict[int, Scalar], g: dict[int, Scalar], acc: dict[int, Scalar] | None = None) -> dict[int, Scalar]:
    """f * g, added into ``acc`` (consumed) when given, zero sums dropped."""
    acc = {} if acc is None else acc
    get = acc.get
    right = g.items()
    for e1, c1 in f.items():
        for e2, c2 in right:
            e = e1 + e2
            acc[e] = get(e, 0) + c1 * c2
    return {e: c for e, c in acc.items() if c}


def _divide(f: dict[int, Scalar], d: dict[int, Scalar], guard: int) -> dict[int, Scalar]:
    """f / d for a nonzero d; ArithmeticError if the division leaves a remainder.

    Leading-term elimination on one remainder dict, updated in place.  The
    remainder's leading terms come off a max-heap of negated monomials; a
    monomial popped as leading is never created again, because every later
    update lies below it, so a stale heap entry is one no longer in the
    remainder.  Each quotient term costs one update per non-leading divisor
    term.  A one-term divisor, a constant included, divides term by term.
    """
    lead = max(d)
    lc = d[lead]
    if len(d) == 1:
        quotient = {}
        for r, c in f.items():
            q = (r | guard) - lead
            if q & guard != guard:
                raise ArithmeticError("exact_divide: not divisible")
            quotient[q ^ guard] = _exquo_scalar(c, lc)
        return quotient
    from heapq import heapify, heappop, heappush

    tail = [(e, c) for e, c in d.items() if e != lead]
    rem = dict(f)
    get = rem.get
    heap = [-e for e in rem]
    heapify(heap)
    quotient = {}
    while heap:
        r = -heappop(heap)
        rc = rem.pop(r, None)
        if rc is None:
            continue
        q = (r | guard) - lead
        if q & guard != guard:
            raise ArithmeticError("exact_divide: not divisible")
        q ^= guard
        qc = quotient[q] = _exquo_scalar(rc, lc)
        for e, c in tail:
            e += q
            s = get(e)
            if s is None:
                heappush(heap, -e)
                rem[e] = -qc * c
            elif s == qc * c:
                del rem[e]
            else:
                rem[e] = s - qc * c
    return quotient


def _exquo_scalar(a: Scalar, b: Scalar) -> Scalar:
    """a / b, as an int exactly when the quotient is integral."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if r == 0:
            return q
    q = Fraction(a) / Fraction(b)
    return q.numerator if q.denominator == 1 else q


# ---------------------------------------------------------------------------
# prime-field univariate helpers (dense int lists, modulus passed explicitly)


def lagrange_interpolate_mod(xs: Sequence[int], ys: Sequence[int], p: int) -> list[int]:
    """Interpolate the unique polynomial of degree < len(xs) through the points, mod p.

    O(n^2): each basis numerator prod_{j != i} (t - xs[j]) is the master
    polynomial prod_j (t - xs[j]) divided by t - xs[i] synthetically.
    """
    n = len(xs)
    if len(ys) != n:
        raise ValueError("point count mismatch")
    master = [1]
    for x in xs:
        master = [(lo - x * hi) % p for lo, hi in zip([0] + master, master + [0])]
    out = [0] * n
    for x, y in zip(xs, ys):
        num, c, denom = [0] * n, 0, 0
        for d in range(n - 1, -1, -1):
            c = num[d] = (master[d + 1] + x * c) % p
            denom = (denom * x + c) % p  # ends as prod_{j != i} (x - xs[j])
        scale = y * pow(denom, -1, p) % p
        out = [(o + c * scale) % p for o, c in zip(out, num)]
    while out and out[-1] == 0:
        out.pop()
    return out


def uni_root_structure_mod(coeffs: Sequence[int], r: int, p: int) -> list[int] | None:
    """Return g's coefficient list if f = c * g**r mod p for a nonzero c, else None.

    g is matched coefficient by coefficient from the leading term down and
    then verified by an exact multiplication mod p.  The zero polynomial
    gives g = [].
    """
    cs = [c % p for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        return []
    d = len(cs) - 1
    if d % r != 0:
        return None
    m = d // r
    inv_lc = pow(cs[-1], -1, p)
    fm = [c * inv_lc % p for c in cs]
    g = [0] * (m + 1)
    g[m] = 1
    inv_r = pow(r, -1, p)
    for j in range(1, m + 1):
        h = _uni_pow_mod(g, r, p)
        need = (fm[r * m - j] - (h[r * m - j] if r * m - j < len(h) else 0)) % p
        g[m - j] = need * inv_r % p
    return g if [c * cs[-1] % p for c in _uni_pow_mod(g, r, p)] == cs else None


def _uni_mul_mod(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1 or 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def _uni_pow_mod(a: Sequence[int], n: int, p: int) -> list[int]:
    out = [1]
    for _ in range(n):
        out = _uni_mul_mod(out, a, p)
    return out
