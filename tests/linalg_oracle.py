"""Reference linear algebra for the tests; nothing in the library calls it.

Gaussian elimination on ``Fraction`` entries is the oracle that the integer
echelon kernel in ``blockhess.linalg`` is compared against, dense
elimination over full rows the oracle for its GF(p) kernel, and cofactor
expansion and Fraction elimination the oracles for its determinants; they
are slow and simple on purpose.  The dense helpers at the end build test matrices.
"""

from fractions import Fraction

from blockhess.ring import scalar_mod


def det_cofactor(m):
    """Determinant by cofactor expansion along the first row."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    for j in range(n):
        a = m[0][j]
        if isinstance(a, (int, Fraction)) and a == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = a * det_cofactor(minor)
        total = total - term if j % 2 else total + term
    return total


def det_fraction(m):
    """Determinant by Gaussian elimination on Fractions with row swaps."""
    a = [[Fraction(e) for e in row] for row in m]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] / a[c][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def components(m):
    """Connected components of the bipartite row-column nonzero graph by
    depth-first search from each row, then each column, not yet reached."""
    nr, nc = len(m), len(m[0]) if m else 0
    reached, out = set(), []
    for start in [("r", i) for i in range(nr)] + [("c", j) for j in range(nc)]:
        if start in reached:
            continue
        stack, comp = [start], set()
        while stack:
            side, x = v = stack.pop()
            if v in reached:
                continue
            reached.add(v)
            comp.add(v)
            if side == "r":
                stack += [("c", j) for j in range(nc) if m[x][j] != 0]
            else:
                stack += [("r", i) for i in range(nr) if m[i][x] != 0]
        out.append((sorted(x for s, x in comp if s == "r"), sorted(x for s, x in comp if s == "c")))
    return out


def rank_fraction(m):
    """Exact rank over Q by Gaussian elimination on Fractions."""
    a = [[Fraction(e) for e in row] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    rank = 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        rank += 1
        if r == rows:
            break
    return rank


def rref_fraction(m):
    """Reduced row echelon form over Q; returns (rref, pivot column list)."""
    a = [[Fraction(e) for e in row] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def span_equal(rows_a, rows_b):
    """Do two row families span the same subspace of Q^n?"""
    ra = rank_fraction(rows_a) if rows_a else 0
    joint = [list(r) for r in rows_a] + [list(r) for r in rows_b]
    return (rank_fraction(rows_b) if rows_b else 0) == ra == (rank_fraction(joint) if joint else 0)


def rank_mod(m, p):
    """Rank over GF(p) by Gauss-Jordan elimination on full rows."""
    a = [[scalar_mod(e, p) for e in row] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    rank = 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        r += 1
        rank += 1
        if r == rows:
            break
    return rank


def det_mod(m, p):
    """Determinant over GF(p) by Gaussian elimination with row swaps."""
    a = [[scalar_mod(e, p) for e in row] for row in m]
    n = len(a)
    det = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det % p
        det = det * a[c][c] % p
        inv = pow(a[c][c], -1, p)
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c] * inv % p
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[c])]
    return det % p


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, m, q = len(a), len(b[0]), len(b)
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            s = 0
            for t in range(q):
                s = s + a[i][t] * b[t][j]
            out[i][j] = s
    return out


def adjugate(m):
    """Classical adjugate via cofactors; small sizes only."""
    n = len(m)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [m[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            cof = det_cofactor(minor)
            out[j][i] = cof if (i + j) % 2 == 0 else -cof
    return out
