"""Irreducibility by degree bookkeeping.

Setting coefficient variables to zero can only lower the degrees of the
irreducible factors of the assembled determinant, and the block-diagonal
specializations used here keep the total degree.  So every candidate
factorization of the full determinant must coarsen (group-and-sum) the
factor pattern of every specialization.  The rectangle feasibility filter
is one more such pattern: the feasible degrees are the multiples of one
step, so a candidate passes it exactly when it coarsens total/step copies
of the step.  The verdict is the intersection of these coarsening sets; if
the only survivor is the full degree, the determinant is irreducible.

Specialization patterns come from three sources:
  * pair embeddings: zero everything outside a chart-column split, leaving
    two smaller determinants of the same k side by side;
  * position splits: zero the cross blocks of a split of the k positions,
    leaving two determinants with smaller k;
  * for k = 4, zeroing one off-diagonal block turns the determinant into
    the square of an irreducible polynomial of half the degree.

Factor patterns for base cases are data with a stated provenance, not
symbolic factorizations; everything else is derived inductively.
"""

from __future__ import annotations

from .degree import feasible_degrees


class InconsistentPatterns(ValueError):
    """No candidate factorization survives; the input data contradicts
    itself (some factorization always exists), so fail loudly."""


#: Factor degree multisets established by direct computation, keyed by the
#: canonical (min(k, N-k), N).  These are trusted inputs, not re-derived here.
BASE_FACTORS: dict[tuple[int, int], tuple[tuple[int, ...], str]] = {
    (3, 6): ((3, 3, 3), "cube of the 3x3 companion determinant"),
    (3, 7): ((6, 6), "square of a degree-6 irreducible"),
    (3, 9): ((18,), "direct symbolic computation"),
    (4, 8): ((16,), "direct symbolic computation"),
    (4, 9): ((20,), "direct symbolic computation"),
    (5, 10): ((25,), "direct symbolic computation"),
    (7, 14): ((49,), "large symbolic computation (assumed base)"),
}


def canonical_key(k: int, N: int) -> tuple[int, int]:
    """Row/column duality: (k, N) and (N-k, N) share one determinant."""
    return (min(k, N - k), N)


def skew_pair_factors(m: int) -> tuple[int, ...] | None:
    """Factor degrees for k = 2 and N = m: the two-block determinant is the
    fourth power of the half-degree pfaffian when m is even, and vanishes
    identically when m is odd (odd-size skew block)."""
    if m < 4:
        return None
    if (m - 2) % 2 == 1:
        return None
    return ((m - 2) // 2,) * 4


#: Largest N that ``ensure`` and ``run_schedule`` derive.  (k, N) derives every
#: smaller N of its k first, so ``irreducible`` at (3, 1000) takes 1.5-2.6 s
#: and at (8, 1000) 7.5-11 s, each at a peak RSS of 15-16 MB.
IRREDUCIBILITY_N_CAP = 1000


def seeded_table() -> dict[tuple[int, int], tuple[tuple[int, ...], str]]:
    """A factor table: canonical (k, N) -> (factor degrees, provenance),
    holding the base entries; ``ensure`` adds each entry it derives."""
    return {key: (degs, f"base: {why}") for key, (degs, why) in BASE_FACTORS.items()}


# ---------------------------------------------------------------------------
# coarsenings and candidate enumeration


def _groupings(degrees) -> set[tuple[int, ...]]:
    """The sorted group sums of every grouping of ``degrees``, built one entry
    at a time: each entry joins one existing group or opens a new one."""
    out: set[tuple[int, ...]] = {()}
    for d in degrees:
        out = {
            tuple(sorted(g[:i] + (g[i] + d,) + g[i + 1 :] if i < len(g) else g + (d,)))
            for g in out
            for i in range(len(g) + 1)
        }
    return out


def coarsenings(pattern: dict) -> set[tuple[int, ...]]:
    """All multisets obtained by grouping the pattern's entries and summing
    each group.  Always contains the pattern itself and the singleton total."""
    degrees = pattern["degrees"]
    if not degrees:
        raise ValueError("empty pattern")
    if len(degrees) > 12:
        raise ValueError(f"pattern with {len(degrees)} entries exceeds the supported size")
    return _groupings(degrees)


def irreducible_verdict(k: int, N: int, patterns: list[dict]) -> dict:
    """Intersect the coarsenings of all patterns and of the rectangle
    pattern, total/step copies of the step of ``feasible_degrees``, and
    declare irreducible iff only the full degree survives.  The specialization
    patterns are intersected first and the rectangle pattern is applied as
    the test "every part is a multiple of the step", which keeps the same
    candidates without enumerating its many coarsenings.

    A pattern is ``{"degrees": sorted list, "provenance": str}``; each must
    hold positive degrees summing to k(N-k).
    """
    total = k * (N - k)
    feas = feasible_degrees(k, N)
    for p in patterns:
        degs = tuple(p["degrees"])
        if any(d <= 0 for d in degs):
            raise ValueError(f"factor degrees must be positive: {degs}")
        if sum(degs) != total:
            raise ValueError(f"pattern {degs} sums to {sum(degs)}, expected {total}")
    step = feas[0]
    sets = [coarsenings(p) for p in patterns] or [_groupings([step] * (total // step))]
    cand = {c for c in set.intersection(*sets) if all(d % step == 0 for d in c)}
    if not cand:
        raise InconsistentPatterns(
            f"no candidate factorization survives for ({k},{N}); "
            f"patterns: {[tuple(p['degrees']) for p in patterns]}"
        )
    ordered = sorted(cand, key=lambda c: (len(c), c))
    return {
        "k": k,
        "N": N,
        "irreducible": ordered == [(total,)],
        "candidates": [list(c) for c in ordered],
        "patterns": list(patterns),
        "feasible_degrees": list(feas),
    }


# ---------------------------------------------------------------------------
# pattern sources and the inductive schedule


def pattern_sources(table: dict, k: int, N: int) -> list[dict]:
    """Specialization patterns available for (k, N), deriving each unknown
    ingredient with min(k, N-k) >= 3 into the table before reading it."""

    def factors(kk: int, mm: int) -> tuple[int, ...] | None:
        """Factor degrees if known (duality applied, k = 2 by formula); None
        when undecided or when the determinant vanishes identically."""
        degs = ensure(table, kk, mm)["factors"]
        return None if degs is None else tuple(degs)

    out: list[dict] = []
    # chart-column pair embeddings: (k, a) next to (k, b), a + b = N + k
    for a in range(k + 2, (N + k) // 2 + 1):
        b = N + k - a
        fa, fb = factors(k, a), factors(k, b)
        if fa is not None and fb is not None:
            out.append({"degrees": sorted(fa + fb), "provenance": f"pair ({k},{a})+({k},{b})"})
    # position splits: (k1, k1 + N - k) above (k2, k2 + N - k)
    for k1 in range(2, k // 2 + 1):
        k2 = k - k1
        fa, fb = factors(k1, k1 + N - k), factors(k2, k2 + N - k)
        if fa is not None and fb is not None:
            out.append({"degrees": sorted(fa + fb), "provenance": f"split ({k1},{k1 + N - k})|({k2},{k2 + N - k})"})
    # k = 4 only: zeroing one off-diagonal block squares a half-degree factor
    if k == 4:
        out.append({"degrees": [2 * (N - 4)] * 2, "provenance": "zeroed-block square"})
    # keep only patterns small enough to coarsen
    return [p for p in out if len(p["degrees"]) <= 12]


def _record(
    k: int, N: int, status: str, factors: tuple[int, ...] | None, note: str, verdict: dict | None = None
) -> dict:
    """One schedule step; status is base | formula | zero | irreducible | undecided."""
    rec = {"k": k, "N": N, "status": status, "factors": None if factors is None else list(factors), "note": note}
    if verdict is not None:
        rec["verdict"] = verdict
    return rec


def ensure(table: dict, k: int, N: int) -> dict:
    """Make the table know (k, N), deriving it inductively if needed; the
    step's record ``{k, N, status, factors, note[, verdict]}``."""
    if N > IRREDUCIBILITY_N_CAP:
        raise ValueError(f"N = {N} is over the cap of {IRREDUCIBILITY_N_CAP}")
    kc, Nc = canonical_key(k, N)
    if kc < 2:
        raise ValueError(f"no meaningful determinant for ({k},{N})")
    if kc == 2:
        degs = skew_pair_factors(Nc)
        if degs is None:
            return _record(kc, Nc, "zero", None, "odd skew block: determinant vanishes")
        return _record(kc, Nc, "formula", degs, "fourth power of the pfaffian")
    known = table.get((kc, Nc))
    if known:
        return _record(kc, Nc, "base", known[0], known[1])
    # the smaller N first, so pattern_sources finds them in the table
    # instead of deriving them one stack frame deeper per N
    for n in range(2 * kc, Nc):
        if (kc, n) not in table:
            ensure(table, kc, n)
    verdict = irreducible_verdict(kc, Nc, pattern_sources(table, kc, Nc))
    if verdict["irreducible"]:
        total = kc * (Nc - kc)
        table[(kc, Nc)] = ((total,), "induction")
        return _record(kc, Nc, "irreducible", (total,), "derived inductively", verdict)
    return _record(kc, Nc, "undecided", None, "candidates remain", verdict)


def run_schedule(k: int, N_max: int) -> list[dict]:
    """Records for (k, N) over N = 2k .. N_max, extending a fresh
    ``seeded_table()`` as it goes.

    Raises ValueError when the range is empty (N_max < 2k): a schedule
    that decides nothing must not read as a pass; and, before deriving
    anything, when N_max exceeds ``IRREDUCIBILITY_N_CAP``.
    """
    if N_max < 2 * k:
        raise ValueError(f"empty schedule: N_max = {N_max} < 2k = {2 * k}")
    if N_max > IRREDUCIBILITY_N_CAP:
        raise ValueError(f"N = {N_max} is over the cap of {IRREDUCIBILITY_N_CAP}")
    table = seeded_table()
    return [ensure(table, k, N) for N in range(2 * k, N_max + 1)]
