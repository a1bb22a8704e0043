"""Reference ring routines for the tests; nothing in the library calls them.

``evaluate`` and ``partial`` read a ``MultiPoly`` term by term: the value
at a point of scalars and the partial derivative in one variable.

Each Lagrange basis polynomial is multiplied out from its n - 1 linear
factors, so interpolation is O(n^3).  It is slow and simple on purpose, and
shares no code with the master-polynomial route in ``blockhess.ring``.
"""

from blockhess.ring import MultiPoly


def evaluate(f, point):
    """f at a point of scalars, one term at a time."""
    if len(point) != f.nvars:
        raise ValueError("point arity mismatch")
    total = 0
    for exp, c in f.terms.items():
        v = c
        for x, e in zip(point, exp):
            if e:
                v *= x**e
        total += v
    return total


def partial(f, i):
    """The partial derivative of f in variable i."""
    terms = {}
    for exp, c in f.terms.items():
        if exp[i]:
            e2 = list(exp)
            e2[i] -= 1
            terms[tuple(e2)] = terms.get(tuple(e2), 0) + c * exp[i]
    return MultiPoly(f.nvars, terms)


def lagrange_interpolate_mod(xs, ys, p):
    """Interpolate the unique polynomial of degree < len(xs) through the points, mod p."""
    n = len(xs)
    if len(ys) != n:
        raise ValueError("point count mismatch")
    out = [0] * n
    for i in range(n):
        # basis polynomial prod_{j != i} (t - xs[j]) / (xs[i] - xs[j])
        num = [1]
        denom = 1
        for j in range(n):
            if j == i:
                continue
            new = [0] * (len(num) + 1)
            for d, c in enumerate(num):
                new[d] -= c * xs[j]
                new[d + 1] += c
            num = [c % p for c in new]
            denom = denom * (xs[i] - xs[j]) % p
        scale = ys[i] * pow(denom, -1, p) % p
        for d, c in enumerate(num):
            out[d] = (out[d] + c * scale) % p
    while out and out[-1] == 0:
        out.pop()
    return out
