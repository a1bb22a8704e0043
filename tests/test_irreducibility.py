"""Factor-pattern bookkeeping: base table, coarsenings, derivation steps."""

import gc
import random
import tracemalloc
from functools import lru_cache

import pytest

from blockhess import irreducibility
from blockhess.degree import feasible_degrees
from blockhess.irreducibility import (
    IRREDUCIBILITY_N_CAP,
    InconsistentPatterns,
    canonical_key,
    coarsenings,
    ensure,
    irreducible_verdict,
    pattern_sources,
    run_schedule,
    seeded_table,
    skew_pair_factors,
)


def pattern(*degrees):
    return {"degrees": sorted(degrees), "provenance": "test"}


def test_canonical_key_folds_duality():
    assert canonical_key(4, 7) == canonical_key(3, 7)
    assert canonical_key(3, 6) == (3, 6)
    assert canonical_key(5, 8) == (3, 8)


def test_skew_pair_factors():
    # k = 2 at even N: fourth power of the half-degree factor; odd N or
    # tiny N carries no factorization (the determinant vanishes or is trivial)
    assert skew_pair_factors(4) == (1, 1, 1, 1)
    assert skew_pair_factors(6) == (2, 2, 2, 2)
    assert skew_pair_factors(8) == (3, 3, 3, 3)
    assert skew_pair_factors(7) is None
    assert skew_pair_factors(3) is None
    assert sum(skew_pair_factors(8)) == 2 * 6  # total degree k(N-k)


def test_seeded_table_contains_base_cases():
    table = seeded_table()
    assert table[(3, 6)] == ((3, 3, 3), "base: cube of the 3x3 companion determinant")
    assert table[(3, 7)][0] == (6, 6)
    assert table[(3, 9)][0] == (18,)
    assert table[(4, 8)][0] == (16,)
    assert table[(4, 9)][0] == (20,)
    assert table[(5, 10)][0] == (25,)
    assert table[(7, 14)][0] == (49,)
    # duality fold, through the base record ensure reports
    assert ensure(table, 4, 7)["factors"] == [6, 6]
    assert ensure(table, 6, 9)["factors"] == [18]


def test_coarsenings():
    cs = coarsenings(pattern(2, 1, 1))
    assert (1, 1, 2) in cs
    assert (4,) in cs
    assert (2, 2) in cs
    assert (1, 3) in cs
    assert all(sum(c) == 4 for c in cs)


def _set_partitions(items):
    """Every set partition of ``items``, as a list of blocks."""
    if not items:
        yield []
        return
    for blocks in _set_partitions(items[1:]):
        for i in range(len(blocks)):
            yield blocks[:i] + [[items[0], *blocks[i]]] + blocks[i + 1 :]
        yield [[items[0]], *blocks]


def _set_partition_sums(entries):
    """Sorted block sums of every set partition of the entries' positions."""
    return {
        tuple(sorted(sum(entries[j] for j in block) for block in blocks))
        for blocks in _set_partitions(list(range(len(entries))))
    }


def test_coarsenings_match_set_partitions():
    rng = random.Random(24)
    for _ in range(60):
        degrees = [rng.randint(1, 6) for _ in range(rng.randint(1, 8))]
        assert coarsenings(pattern(*degrees)) == _set_partition_sums(degrees), degrees
    assert coarsenings(pattern(2, 2, 2, 2)) == {(8,), (2, 6), (4, 4), (2, 2, 4), (2, 2, 2, 2)}
    with pytest.raises(ValueError, match="empty pattern"):
        coarsenings(pattern())
    with pytest.raises(ValueError, match="13 entries exceeds"):
        coarsenings(pattern(*[1] * 13))


def _partitions_into(total, parts):
    """All multisets with entries drawn from ``parts`` summing to total."""
    parts = tuple(sorted(set(parts)))

    @lru_cache(maxsize=None)
    def rec(remaining, min_idx):
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


def test_verdict_without_patterns_is_the_partitions_into_feasible_degrees():
    # the rectangle filter alone: every multiset of feasible degrees summing
    # to the total, in (length, value) order
    for k in range(2, 11):
        for N in range(k + 1, 31):
            want = sorted(_partitions_into(k * (N - k), feasible_degrees(k, N)), key=lambda c: (len(c), c))
            v = irreducible_verdict(k, N, [])
            assert v["candidates"] == [list(c) for c in want], (k, N)
            assert v["irreducible"] is (want == [(k * (N - k),)])


def test_verdict_keeps_the_coarsenings_common_to_all_patterns():
    # (3, 6): 3+6 coarsens to 3+6 and 9, and 3+3+3 also to itself, so only
    # 9 and 3+6 are common; a union would keep 3+3+3
    v = irreducible_verdict(3, 6, [pattern(3, 6), pattern(3, 3, 3)])
    assert v["candidates"] == [[9], [3, 6]]


def test_ensure_keeps_no_memory_between_calls():
    # a process-wide cache of coarsenings once kept 7 MB after this call and
    # took irreducible --k 8 --N 1000 to 586 MB
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rec = ensure(seeded_table(), 4, 200)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert rec["status"] == "irreducible"
    assert kept < 1_000_000, kept


def test_irreducible_verdict_intersects_patterns():
    # (3, 8): only feasible degree is 15 = total, so the empty pattern set
    # already forces irreducibility
    v = irreducible_verdict(3, 8, [])
    assert v["irreducible"] is True
    assert v["feasible_degrees"] == [15]
    # (3, 6) not forced without patterns: degrees 3, 6, 9 all feasible
    v = irreducible_verdict(3, 6, [])
    assert v["irreducible"] is False
    assert [3, 3, 3] in v["candidates"] and [9] in v["candidates"]
    assert list(v) == ["k", "N", "irreducible", "candidates", "patterns", "feasible_degrees"]
    # a pattern with the wrong total, or a degree that is not positive, is
    # rejected outright
    with pytest.raises(ValueError, match=r"pattern \(7, 9\) sums to 16, expected 15"):
        irreducible_verdict(3, 8, [pattern(7, 9)])
    with pytest.raises(ValueError, match=r"factor degrees must be positive: \(0, 15\)"):
        irreducible_verdict(3, 8, [pattern(15, 0)])
    # InconsistentPatterns is the (defensive) empty-intersection signal and
    # remains an ordinary ValueError to callers
    assert issubclass(InconsistentPatterns, ValueError)
    # a pattern that rules everything but the full degree out
    v = irreducible_verdict(3, 8, [pattern(7, 8)])
    assert v["irreducible"] is True


def test_ensure_base_and_formula_cases():
    table = seeded_table()
    rec = ensure(table, 3, 6)
    assert rec["status"] == "base" and rec["factors"] == [3, 3, 3]
    rec = ensure(table, 2, 7)
    assert rec["status"] == "zero"  # odd N, skew pairing: determinant vanishes
    rec = ensure(table, 2, 8)
    assert rec["status"] == "formula"
    assert rec["factors"] == [3, 3, 3, 3]


def test_ensure_derives_3_11():
    table = seeded_table()
    rec = ensure(table, 3, 11)
    assert rec["status"] in ("irreducible", "undecided") or rec["factors"] is not None
    assert rec["verdict"] is not None
    assert rec["verdict"]["irreducible"] is not None  # decided one way or the other
    # the verdict's factor multiset must be one of the feasible splittings
    feas = feasible_degrees(3, 11)
    if rec["factors"] is not None:
        assert all(d in feas for d in rec["factors"]) or rec["factors"] == [3 * 8]
    # the derived entry is now in the table, and a second ensure reads it
    assert table[(3, 11)] == ((24,), "induction")
    assert ensure(table, 3, 11) == {"k": 3, "N": 11, "status": "base", "factors": [24], "note": "induction"}


def test_ensure_depth_does_not_grow_with_N():
    # the smaller N are derived first; deriving each one a stack frame
    # deeper than the last raised RecursionError here
    table = seeded_table()
    rec = ensure(table, 3, 700)
    assert (rec["status"], rec["factors"]) == ("irreducible", [3 * 697])
    assert all((3, n) in table for n in range(6, 701))


def test_N_over_the_cap_is_rejected_before_deriving(monkeypatch):
    # (3, 5000) ran past 20 s; any verdict past the cap means the guard came too late
    class Derived(Exception):
        pass

    def refuse(*args):
        raise Derived

    monkeypatch.setattr(irreducibility, "irreducible_verdict", refuse)
    assert IRREDUCIBILITY_N_CAP == 1000
    for k in (3, 4, 8):
        with pytest.raises(ValueError, match="over the cap of 1000"):
            ensure(seeded_table(), k, 1001)
        with pytest.raises(ValueError, match="over the cap of 1000"):
            run_schedule(k, 1001)
        with pytest.raises(Derived):
            ensure(seeded_table(), k, 1000)
        with pytest.raises(Derived):
            run_schedule(k, 1000)


@pytest.mark.parametrize("k,N_max", [(3, 14), (4, 12)])
def test_run_schedule_decides_every_case(k, N_max):
    records = run_schedule(k, N_max)
    assert records
    for rec in records:
        assert rec["status"] != "undecided", (rec["k"], rec["N"], rec["note"])
        assert list(rec)[:5] == ["k", "N", "status", "factors", "note"]


def test_run_schedule_5_11_uses_two_patterns():
    records = run_schedule(5, 11)
    rec = next(r for r in records if (r["k"], r["N"]) == (5, 11))
    assert rec["status"] != "undecided"


def test_pattern_sources_exist_for_embeddable_shapes():
    table = seeded_table()
    pats = pattern_sources(table, 3, 12)
    assert pats  # at least one product specialization applies
    for p in pats:
        assert sum(p["degrees"]) == 3 * 9
        assert p["degrees"] == sorted(p["degrees"])
    # the (3,6)+(3,9) pair embedding is among them
    assert {"degrees": [3, 3, 3, 18], "provenance": "pair (3,6)+(3,9)"} in pats
