"""Irreducibility by degree bookkeeping.

Setting coefficient variables to zero can only lower the degrees of the
irreducible factors of the assembled determinant, and the block-diagonal
specializations used here keep the total degree.  So every candidate
factorization of the full determinant must coarsen (group-and-sum) the
factor pattern of every specialization, and every candidate degree must
pass the rectangle feasibility filter.  If the only survivor is the full
degree, the determinant is irreducible.

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

from functools import lru_cache

from .degree import feasible_degrees


class InconsistentPatterns(ValueError):
    """No candidate factorization survives; the input data contradicts
    itself (some factorization always exists), so fail loudly."""


class FactorPattern:
    """Irreducible factor degrees of one specialized determinant."""

    __slots__ = ("degrees", "provenance")

    def __init__(self, degrees: tuple[int, ...], provenance: str):
        degrees = tuple(sorted(degrees))
        if any(d <= 0 for d in degrees):
            raise ValueError(f"factor degrees must be positive: {degrees}")
        self.degrees = degrees
        self.provenance = provenance

    def total(self) -> int:
        return sum(self.degrees)

    def to_json_dict(self) -> dict:
        return {"degrees": list(self.degrees), "provenance": self.provenance}


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


class KnownFactorTable:
    """Map (k, N) -> factor degree multiset, with provenance per entry."""

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: dict[tuple[int, int], tuple[tuple[int, ...], str]] = {}

    @classmethod
    def seeded(cls) -> "KnownFactorTable":
        t = cls()
        for key, (degs, why) in BASE_FACTORS.items():
            t.entries[key] = (degs, f"base: {why}")
        return t

    def lookup(self, k: int, N: int) -> tuple[int, ...] | None:
        """Factor degrees if known (duality applied, k=2 by formula);
        None when unknown or when the determinant vanishes identically."""
        kc, Nc = canonical_key(k, N)
        if kc < 2:
            return None
        if kc == 2:
            return skew_pair_factors(Nc)
        hit = self.entries.get((kc, Nc))
        return hit[0] if hit else None

    def add(self, k: int, N: int, degrees: tuple[int, ...], provenance: str) -> None:
        self.entries[canonical_key(k, N)] = (tuple(sorted(degrees)), provenance)


# ---------------------------------------------------------------------------
# coarsenings and candidate enumeration


@lru_cache(maxsize=None)
def _sum_groupings(entries: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    if not entries:
        return frozenset({()})
    first, rest = entries[0], entries[1:]
    n = len(rest)
    out: set[tuple[int, ...]] = set()
    seen: set[tuple[int, ...]] = set()
    for mask in range(1 << n):
        sub = tuple(rest[i] for i in range(n) if mask >> i & 1)
        if sub in seen:
            continue
        seen.add(sub)
        comp = tuple(rest[i] for i in range(n) if not mask >> i & 1)
        s = first + sum(sub)
        for tail in _sum_groupings(comp):
            out.add(tuple(sorted((s,) + tail)))
    return frozenset(out)


def coarsenings(pattern: FactorPattern) -> set[tuple[int, ...]]:
    """All multisets obtained by grouping the pattern's entries and summing
    each group.  Always contains the pattern itself and the singleton total."""
    if not pattern.degrees:
        raise ValueError("empty pattern")
    if len(pattern.degrees) > 12:
        raise ValueError(f"pattern with {len(pattern.degrees)} entries exceeds the supported size")
    return set(_sum_groupings(tuple(sorted(pattern.degrees))))


def _partitions_into(total: int, parts: tuple[int, ...]) -> set[tuple[int, ...]]:
    """All multisets with entries drawn from ``parts`` summing to total."""
    parts = tuple(sorted(set(parts)))

    @lru_cache(maxsize=None)
    def rec(remaining: int, min_idx: int) -> frozenset[tuple[int, ...]]:
        if remaining == 0:
            return frozenset({()})
        out = set()
        for i in range(min_idx, len(parts)):
            p = parts[i]
            if p > remaining:
                break
            for tail in rec(remaining - p, i):
                out.add(tuple(sorted((p,) + tail)))
        return frozenset(out)

    return set(rec(total, 0))


class Verdict:
    __slots__ = ("k", "N", "irreducible", "candidates", "patterns", "feasible")

    def __init__(
        self,
        k: int,
        N: int,
        irreducible: bool,
        candidates: tuple[tuple[int, ...], ...],
        patterns: tuple[FactorPattern, ...],
        feasible: tuple[int, ...],
    ):
        self.k = k
        self.N = N
        self.irreducible = irreducible
        self.candidates = candidates
        self.patterns = patterns
        self.feasible = feasible

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "N": self.N,
            "irreducible": self.irreducible,
            "candidates": [list(c) for c in self.candidates],
            "patterns": [p.to_json_dict() for p in self.patterns],
            "feasible_degrees": list(self.feasible),
        }


def irreducible_verdict(k: int, N: int, patterns: list[FactorPattern]) -> Verdict:
    """Intersect the coarsenings of all patterns, keep candidates whose parts
    are all feasible degrees, and declare irreducible iff only the full
    degree survives.  With no patterns, candidates are all partitions of the
    total into feasible degrees."""
    total = k * (N - k)
    feas = feasible_degrees(k, N).degrees
    feas_set = set(feas)
    for p in patterns:
        if p.total() != total:
            raise ValueError(f"pattern {p.degrees} sums to {p.total()}, expected {total}")
    if patterns:
        cand: set[tuple[int, ...]] | None = None
        for p in patterns:
            cs = coarsenings(p)
            cand = cs if cand is None else cand & cs
        assert cand is not None
        cand = {c for c in cand if all(d in feas_set for d in c)}
    else:
        cand = _partitions_into(total, feas)
    if not cand:
        raise InconsistentPatterns(
            f"no candidate factorization survives for ({k},{N}); "
            f"patterns: {[p.degrees for p in patterns]}"
        )
    ordered = tuple(sorted(cand, key=lambda c: (len(c), c)))
    return Verdict(k, N, ordered == ((total,),), ordered, tuple(patterns), feas)


# ---------------------------------------------------------------------------
# pattern sources and the inductive schedule


def pattern_sources(table: KnownFactorTable, k: int, N: int) -> list[FactorPattern]:
    """Specialization patterns available for (k, N), deriving each unknown
    ingredient with min(k, N-k) >= 3 into the table before reading it."""

    def factors(kk: int, mm: int) -> tuple[int, ...] | None:
        key = canonical_key(kk, mm)
        if key[0] >= 3 and key not in table.entries:
            ensure(table, kk, mm)
        return table.lookup(kk, mm)

    out: list[FactorPattern] = []
    # chart-column pair embeddings: (k, a) next to (k, b), a + b = N + k
    for a in range(k + 2, (N + k) // 2 + 1):
        b = N + k - a
        fa, fb = factors(k, a), factors(k, b)
        if fa is not None and fb is not None:
            out.append(FactorPattern(fa + fb, f"pair ({k},{a})+({k},{b})"))
    # position splits: (k1, k1 + N - k) above (k2, k2 + N - k)
    for k1 in range(2, k // 2 + 1):
        k2 = k - k1
        fa, fb = factors(k1, k1 + N - k), factors(k2, k2 + N - k)
        if fa is not None and fb is not None:
            out.append(FactorPattern(fa + fb, f"split ({k1},{k1 + N - k})|({k2},{k2 + N - k})"))
    # k = 4 only: zeroing one off-diagonal block squares a half-degree factor
    if k == 4:
        out.append(FactorPattern((2 * (N - 4), 2 * (N - 4)), "zeroed-block square"))
    # keep only patterns small enough to coarsen
    return [p for p in out if len(p.degrees) <= 12]


class StepRecord:
    __slots__ = ("k", "N", "status", "factors", "verdict", "note")

    def __init__(
        self,
        k: int,
        N: int,
        status: str,  # base | formula | zero | irreducible | undecided
        factors: tuple[int, ...] | None,
        verdict: Verdict | None,
        note: str,
    ):
        self.k = k
        self.N = N
        self.status = status
        self.factors = factors
        self.verdict = verdict
        self.note = note

    def to_json_dict(self) -> dict:
        d = {
            "k": self.k,
            "N": self.N,
            "status": self.status,
            "factors": list(self.factors) if self.factors is not None else None,
            "note": self.note,
        }
        if self.verdict is not None:
            d["verdict"] = self.verdict.to_json_dict()
        return d


def ensure(table: KnownFactorTable, k: int, N: int) -> StepRecord:
    """Make the table know (k, N), deriving it inductively if needed."""
    kc, Nc = canonical_key(k, N)
    if kc < 2:
        raise ValueError(f"no meaningful determinant for ({k},{N})")
    if kc == 2:
        degs = skew_pair_factors(Nc)
        if degs is None:
            return StepRecord(kc, Nc, "zero", None, None, "odd skew block: determinant vanishes")
        return StepRecord(kc, Nc, "formula", degs, None, "fourth power of the pfaffian")
    known = table.entries.get((kc, Nc))
    if known:
        return StepRecord(kc, Nc, "base", known[0], None, known[1])
    patterns = pattern_sources(table, kc, Nc)
    verdict = irreducible_verdict(kc, Nc, patterns)
    if verdict.irreducible:
        total = kc * (Nc - kc)
        table.add(kc, Nc, (total,), "induction")
        return StepRecord(kc, Nc, "irreducible", (total,), verdict, "derived inductively")
    return StepRecord(kc, Nc, "undecided", None, verdict, "candidates remain")


def run_schedule(k: int, N_max: int, table: KnownFactorTable | None = None) -> list[StepRecord]:
    """Verdicts for (k, N) over N = 2k .. N_max, extending the table as it goes.

    Raises ValueError when the range is empty (N_max < 2k): a schedule
    that decides nothing must not read as a pass.
    """
    if N_max < 2 * k:
        raise ValueError(f"empty schedule: N_max = {N_max} < 2k = {2 * k}")
    if table is None:
        table = KnownFactorTable.seeded()
    return [ensure(table, k, N) for N in range(2 * k, N_max + 1)]
