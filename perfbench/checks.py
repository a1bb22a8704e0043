"""Independent oracles and the canonical result digest.

Nothing here calls into ``blockhess``: the checks re-derive what a task
claims with the benchmark's own prime-field elimination and its own
Hessian assembly, so a change to the library's kernels cannot also change
the yardstick it is measured against.  A mod-p comparison can only miss a
wrong exact answer when p divides the discrepancy; exact answers are
compared mod two 61-bit primes, so that chance is below 2^-60 each.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import combinations

PRIMES = (2305843009213693951, 2305843009213693921)  # 2^61 - 1 and 2^61 - 35


class CheckFailed(Exception):
    """A task's result contradicts its independent check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# canonical digests


def canon(obj):
    """A JSON-ready canonical form of a task result.

    Reads attributes only (``terms``, ``rows``, ``coeffs``...), never calls a
    library method, so digesting adds no spans to a traced run.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj.numerator) if obj.denominator == 1 else f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (list, tuple)):
        return [canon(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((canon(x) for x in obj), key=_sort_key)
    if isinstance(obj, dict):
        return sorted(([canon(k), canon(v)] for k, v in obj.items()), key=_sort_key)
    cls = type(obj).__name__
    if cls == "MultiPoly":
        return {"nvars": obj.nvars, "terms": sorted([list(e), canon(c)] for e, c in obj.terms.items())}
    if cls == "HessianMatrix":
        return {"k": obj.k, "N": obj.N, "rows": canon(obj.rows)}
    if cls == "ExteriorArray":
        return {"k": obj.k, "N": obj.N, "coeffs": canon(obj.coeffs)}
    if cls == "Certificate":
        return {"id": obj.id, "kind": obj.kind, "k": obj.k, "N": obj.N, "blocks": canon(obj.blocks)}
    raise TypeError(f"no canonical form for {cls}")


def _sort_key(x) -> str:
    return json.dumps(x, separators=(",", ":"))


def digest(result) -> str:
    body = json.dumps(canon(result), separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(body.encode("ascii")).hexdigest()


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# prime-field elimination


def to_mod(x, p: int) -> int:
    if isinstance(x, Fraction):
        return x.numerator % p * pow(x.denominator, -1, p) % p
    return x % p


def det_mod(rows, p: int) -> int:
    a = [[to_mod(e, p) for e in row] for row in rows]
    n = len(a)
    det = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = det * a[c][c] % p
        inv = pow(a[c][c], -1, p)
        pivot_row = a[c]
        for i in range(c + 1, n):
            f = a[i][c] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], pivot_row)]
    return det % p


def rank_mod(rows, p: int) -> int:
    a = [[to_mod(e, p) for e in row] for row in rows]
    if not a:
        return 0
    rank = 0
    for c in range(len(a[0])):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][c], -1, p)
        pivot_row = a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][c] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], pivot_row)]
        rank += 1
        if rank == len(a):
            break
    return rank


def check_det(rows, claimed, what: str) -> None:
    """An exact determinant must agree with elimination mod two primes."""
    for p in PRIMES:
        require(to_mod(claimed, p) == det_mod(rows, p), f"{what}: det disagrees mod {p}")


def check_rank(rows, claimed: int, what: str) -> None:
    """A Q-rank is at least every p-rank, and equals it for all but finitely many p."""
    ranks = [rank_mod(rows, p) for p in PRIMES]
    require(max(ranks) == claimed, f"{what}: rank {claimed}, mod-p ranks {ranks}")


def span_rank_mod(forms, order: dict, p: int) -> int:
    rows = []
    for f in forms:
        row = [0] * len(order)
        for I, c in f.items():
            row[order[I]] = c
        rows.append(row)
    return rank_mod(rows, p)


# ---------------------------------------------------------------------------
# Hessian assembly from raw coefficients


def sorted_with_sign(values) -> tuple[tuple[int, ...], int]:
    seq = list(values)
    if len(set(seq)) != len(seq):
        return tuple(sorted(seq)), 0
    inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])
    return tuple(sorted(seq)), -1 if inv % 2 else 1


def hessian_rows(k: int, N: int, coeffs: dict, zero=0) -> list[list]:
    """Second partials at the chart origin of the form with these coefficients.

    Row (p, t) sits at (p-1)(N-k) + (t-k-1); the entry at ((p,t),(q,u)) is
    the coefficient with t written at position p and u at position q of
    (1..k), signed by sorting.
    """
    m = N - k
    rows = [[zero] * (k * m) for _ in range(k * m)]
    for p in range(1, k + 1):
        for q in range(1, k + 1):
            if p == q:
                continue
            for t in range(k + 1, N + 1):
                for u in range(k + 1, N + 1):
                    if t == u:
                        continue
                    raw = list(range(1, k + 1))
                    raw[p - 1], raw[q - 1] = t, u
                    I, s = sorted_with_sign(raw)
                    c = coeffs.get(I, 0)
                    if s and c:
                        rows[(p - 1) * m + t - k - 1][(q - 1) * m + u - k - 1] = c if s > 0 else -c
    return rows


def frame_form(coeffs: dict, k: int, X) -> Fraction:
    """F(A, X): sum of a_I times the I-minor of the frame [Id | X]."""
    frame = [[Fraction(int(c == p)) for c in range(1, k + 1)] + list(X[p - 1]) for p in range(1, k + 1)]
    total = Fraction(0)
    for I, c in coeffs.items():
        if c:
            total += c * det_fraction([[row[j - 1] for j in I] for row in frame])
    return total


def det_fraction(m) -> Fraction:
    a = [list(r) for r in m]
    n, det = len(a), Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def second_partials(coeffs: dict, k: int, X) -> list[list[Fraction]]:
    """Second partials of F(A, .) at X, from values of F alone.

    Each minor of [Id | X] is linear in each row of X, so F is affine in
    each row: the partials within one row vanish, and for entries of two
    different rows F is a + b x + c y + d xy, whose d is exactly the
    four-point difference over unit steps.
    """
    m = len(X[0])
    cells = [(p, t) for p in range(k) for t in range(m)]

    def at(*steps) -> Fraction:
        Y = [list(row) for row in X]
        for p, t in steps:
            Y[p][t] += 1
        return frame_form(coeffs, k, Y)

    base = at()
    single = {c: at(c) for c in cells}
    out = [[Fraction(0)] * (k * m) for _ in range(k * m)]
    for (p, t), (q, u) in combinations(cells, 2):
        if p != q:
            d = at((p, t), (q, u)) - single[p, t] - single[q, u] + base
            out[p * m + t][q * m + u] = out[q * m + u][p * m + t] = d
    return out


def all_indices(k: int, N: int) -> list[tuple[int, ...]]:
    return list(combinations(range(1, N + 1), k))


# ---------------------------------------------------------------------------
# univariate helpers mod p


def poly_eval_mod(coeffs, x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def poly_pow_mod(g, r: int, p: int) -> list[int]:
    out = [1]
    for _ in range(r):
        nxt = [0] * (len(out) + len(g) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(g):
                nxt[i + j] = (nxt[i + j] + a * b) % p
        out = nxt
    return out
