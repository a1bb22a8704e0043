"""Assembly of the block matrix and everything downstream of it.

Oracle: entries of the assembled matrix must equal second partial
derivatives of the expanded chart polynomial, computed by raw term
manipulation in ``tests/exterior_oracle.py`` — a route sharing no code
with the assembler.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exterior_oracle
import hessian_oracle
import linalg_oracle
from blockhess import linalg
from blockhess.cli import main
from blockhess.exterior import ChartPoint, ExteriorArray, act_translation
from blockhess.hessian import (
    HessianMatrix,
    assemble,
    assemble_dual,
    assemble_symbolic,
    block_row_rank,
    coefficient_names,
    det_exact,
    det_mod,
    dualize_layout,
    position_split_embed,
    rank_exact,
    specialize_embed,
    symbolic_coefficient_array,
)
from blockhess.multiindex import enumerate_indices, first_index
from blockhess.ring import WORD_PRIMES, MultiPoly, prime_for_trial, scalar_from_string


def rand_array(rng, k, N, lo=-4, hi=4):
    return ExteriorArray(k, N, {I: rng.randint(lo, hi) for I in enumerate_indices(k, N)})


def rand_point(rng, k, N, lo=-2, hi=2):
    return ChartPoint.from_rows(
        k, N, [[Fraction(rng.randint(lo, hi)) for _ in range(N - k)] for _ in range(k)]
    )


def _positional_get(A: ExteriorArray, values, positions):
    """The coefficient symbol with values t_i written at positions p_i of If,
    read through the sign of sorting: the reference for assemble's closed form."""
    raw = list(first_index(A.k, A.N))
    for t, p in zip(values, positions):
        raw[p - 1] = t
    return A.get(raw)


def _grouping_permutation(k: int, a: int, b: int) -> list[int]:
    """1-based permutation that turns specialize_embed(H1, H2) into
    blockdiag(H1, H2) when applied to rows and columns."""
    k1, k2 = a - k, b - k
    w = k1 + k2
    first = [(p - 1) * w + u for p in range(1, k + 1) for u in range(1, k1 + 1)]
    second = [(p - 1) * w + k1 + u for p in range(1, k + 1) for u in range(1, k2 + 1)]
    return first + second


@pytest.mark.parametrize("k,N", [(2, 5), (3, 6), (3, 7)])
def test_assemble_matches_second_partials_at_zero(k, N):
    rng = random.Random(f"hess:{k}:{N}")
    for _ in range(4):
        A = rand_array(rng, k, N)
        H = assemble(A)
        assert H.rows == exterior_oracle.second_partials(A, exterior_oracle.zero_point(k, N))


def test_hessian_at_matches_second_partials_at_general_point():
    rng = random.Random(31)
    for _ in range(4):
        A = rand_array(rng, 3, 6)
        X = rand_point(rng, 3, 6)
        assert assemble(act_translation(A, X)).rows == exterior_oracle.second_partials(A, X)


def test_structure_zero_diagonal_skew_off_diagonal():
    rng = random.Random(2)
    A = rand_array(rng, 3, 7)
    H = assemble(A)
    assert H.is_structurally_valid()
    m = 4
    for p in range(1, 4):
        B = H.block(p, p)
        assert all(B[u][v] == 0 for u in range(m) for v in range(m))
    for p in range(1, 4):
        for q in range(p + 1, 4):
            B = H.block(p, q)
            C = H.block(q, p)
            assert all(B[u][v] == -B[v][u] for u in range(m) for v in range(m))
            # overall symmetry: the transposed position holds the transpose,
            # which for a skew block is the negative
            assert all(C[u][v] == B[v][u] == -B[u][v] for u in range(m) for v in range(m))


@pytest.mark.parametrize("kind", ["asymmetric", "diagonal-block", "not-skew", "symbolic-diagonal"])
def test_structure_check_rejects_each_broken_shape(kind):
    # each edit breaks one of the three properties and keeps the other two
    if kind == "symbolic-diagonal":
        H = assemble_symbolic(3, 6)
    else:
        H = assemble(rand_array(random.Random(2), 3, 7))
    assert H.is_structurally_valid()
    R = [list(r) for r in H.rows]
    # with N-k = 4, cell (0, 5) is slot (0, 1) of block (1, 2); (1, 4) is its
    # skew partner and (5, 0) its mirror
    if kind == "asymmetric":  # block (1, 2) stays skew, but (2, 1) no longer mirrors it
        R[0][5] += 1
        R[1][4] -= 1
    elif kind == "diagonal-block":  # symmetric, nonzero in block (1, 1)
        R[0][1] = R[1][0] = 1
    elif kind == "not-skew":  # symmetric, but block (1, 2) is not skew
        R[0][5] += 1
        R[5][0] += 1
    else:  # MultiPoly zeros (truthy) must read as zero above, and a variable as nonzero here
        R[0][0] = MultiPoly.variable(0, 9)
    assert not HessianMatrix(H.k, H.N, R).is_structurally_valid()


def test_index_label_entry_block_consistency():
    # label (p, t) is row (p - 1)(N - k) + (t - k - 1)
    H = assemble_symbolic(3, 6)
    for p in range(1, 4):
        for q in range(1, 4):
            cells = [[H.rows[3 * (p - 1) + t - 4][3 * (q - 1) + tt - 4] for tt in range(4, 7)] for t in range(4, 7)]
            assert H.block(p, q) == cells


def test_block_grid_inverts_assembly():
    rng = random.Random(6)
    A = rand_array(rng, 4, 8)
    H = assemble(A)
    m = 4
    for p in range(1, 5):
        for q in range(1, 5):
            B = H.block(p, q)
            for u in range(m):
                for v in range(m):
                    assert H.rows[(p - 1) * m + u][(q - 1) * m + v] == B[u][v]


def test_json_round_trip(tmp_path, capsys):
    # the hessian command's record reads back, entry by entry, as the
    # assembled matrix: ints as JSON numbers, rationals as "a/b" strings
    rng = random.Random(11)
    A = ExteriorArray(3, 6, {I: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for I in enumerate_indices(3, 6)})
    path = tmp_path / "a.json"
    path.write_text(json.dumps(exterior_oracle.array_to_json_dict(A)), encoding="utf-8")
    assert main(["hessian", "--input", str(path)]) == 0
    rec = json.loads(capsys.readouterr().out.splitlines()[1])
    H, H2 = assemble(A), HessianMatrix(rec["k"], rec["N"], [[scalar_from_string(str(e)) for e in row] for row in rec["rows"]])
    assert H2.k == H.k and H2.N == H.N and H2.rows == H.rows


def test_symbolic_coefficient_array_has_one_variable_per_block_slot():
    A = symbolic_coefficient_array(3, 6)
    names = coefficient_names(3, 6)
    assert len(names) == 9  # C(3,2) * C(3,2)
    nz = [c for c in A.coeffs.values() if not c.is_zero()]
    assert len(nz) == 9
    H = assemble(A)
    assert H.is_structurally_valid()


@pytest.mark.parametrize("k", range(2, 7))
def test_symbolic_coefficient_array_matches_sorted_sign_oracle(k):
    # keys, signs, variable numbering and insertion order, from the plan
    # against each slot's key sorted with sign
    for N in range(k + 2, 2 * k + 5):
        A, ref = symbolic_coefficient_array(k, N), hessian_oracle.symbolic_coefficient_array(k, N)
        assert list(A.coeffs.items()) == list(ref.coeffs.items()), (k, N)


def test_symbolic_cap_is_checked_before_the_plan():
    from blockhess.hessian import SYMBOLIC_VARIABLE_CAP, _assembly_plan

    before = _assembly_plan.cache_info()
    with pytest.raises(ValueError, match=f"over the cap of {SYMBOLIC_VARIABLE_CAP}"):
        symbolic_coefficient_array(2, 200)  # C(198, 2) = 19,503 variables
    after = _assembly_plan.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_assembly_side_cap_is_checked_before_the_plan(monkeypatch):
    from blockhess import hessian
    from blockhess.hessian import ASSEMBLY_SIDE_CAP, _assembly_plan

    # (3, 100000) would lay out 299,991^2 cells; sizing any plan past the
    # cap means the guard came too late
    def refuse(*args):
        raise AssertionError("a plan was sized past the cap")

    monkeypatch.setattr(hessian, "comb", refuse)
    assert ASSEMBLY_SIDE_CAP == 1024
    for k, N in ((3, 100000), (4, 261), (2, 515)):
        with pytest.raises(ValueError, match="over the cap of 1024"):
            assemble(ExteriorArray(k, N, {}))
    monkeypatch.undo()
    assert assemble(ExteriorArray(2, 514, {})).side == 1024
    _assembly_plan.cache_clear()  # a side-1024 plan holds a million cells


@given(st.integers(0, 2**32))
@settings(max_examples=12, deadline=None)
def test_assembled_matrix_is_symmetric(seed):
    rng = random.Random(seed)
    A = rand_array(rng, 3, 6)
    H = assemble(A)
    n = 9
    assert all(H.rows[i][j] == H.rows[j][i] for i in range(n) for j in range(n))


def test_assemble_dual_is_swap_then_assemble():
    rng = random.Random(14)
    A = rand_array(rng, 3, 7)
    lhs = assemble_dual(A)
    rhs = assemble(exterior_oracle.act_gl(A, exterior_oracle.w_swap_matrix(3, 7)))
    assert lhs.rows == rhs.rows


def test_duality_permutation_regroups_and_preserves_det():
    k, N = 3, 7
    perm = hessian_oracle.duality_permutation(k, N)
    assert sorted(perm) == list(range(1, k * (N - k) + 1))
    rng = random.Random(17)
    for _ in range(5):
        H = assemble(rand_array(rng, k, N))
        Hd = dualize_layout(H)
        assert Hd.k == N - k and Hd.N == N
        assert Hd.rows == hessian_oracle.apply_permutation(H.rows, perm)
        assert Hd.is_structurally_valid()
        assert det_exact(Hd) == det_exact(H)  # symmetric permutation: sign^2 = 1
        assert rank_exact(Hd) == rank_exact(H)


def test_dualize_layout_symbolic_block_pattern():
    Hd = dualize_layout(assemble_symbolic(3, 7))
    assert Hd.is_structurally_valid()
    # diagonal blocks of the relabeled layout are zero even symbolically
    m = 3
    for p in range(1, 5):
        B = Hd.block(p, p)
        assert all(e == 0 or (isinstance(e, MultiPoly) and e.is_zero()) for row in B for e in row)


def test_specialize_embed_layout_and_multiplicativity():
    rng = random.Random(23)
    for k, a, b in [(3, 6, 6), (3, 6, 7), (4, 6, 8)]:
        H1 = assemble(rand_array(rng, k, a))
        H2 = assemble(rand_array(rng, k, b))
        E = specialize_embed(H1, H2)
        assert (E.k, E.N) == (k, a + b - k)
        assert E.is_structurally_valid()
        assert det_exact(E) == det_exact(H1) * det_exact(H2)
        # conjugating by the grouping permutation shows blockdiag(H1, H2)
        G = hessian_oracle.apply_permutation(E.rows, _grouping_permutation(k, a, b))
        n1 = k * (a - k)
        assert [row[:n1] for row in G[:n1]] == H1.rows
        assert [row[n1:] for row in G[n1:]] == H2.rows
        assert all(e == 0 for row in G[:n1] for e in row[n1:])
    with pytest.raises(ValueError, match="mixed k: 3 vs 4"):
        specialize_embed(assemble(rand_array(rng, 3, 6)), assemble(rand_array(rng, 4, 6)))
    with pytest.raises(ValueError, match="at least one chart column"):
        specialize_embed(HessianMatrix(3, 3, []), assemble(rand_array(rng, 3, 6)))


def test_position_split_embed_layout_and_multiplicativity():
    rng = random.Random(29)
    for k1, k2, m in [(2, 2, 3), (3, 2, 4), (3, 3, 3)]:
        H1 = assemble(rand_array(rng, k1, k1 + m))
        H2 = assemble(rand_array(rng, k2, k2 + m))
        E = position_split_embed(H1, H2)
        assert (E.k, E.N) == (k1 + k2, k1 + k2 + m)
        assert E.is_structurally_valid()
        assert det_exact(E) == det_exact(H1) * det_exact(H2)
        n1 = k1 * m
        assert [row[:n1] for row in E.rows[:n1]] == H1.rows
        assert all(e == 0 for row in E.rows[:n1] for e in row[n1:])
    with pytest.raises(ValueError):
        position_split_embed(assemble(rand_array(rng, 2, 5)), assemble(rand_array(rng, 2, 6)))


def test_rank_helpers_and_adjugate_check():
    rng = random.Random(41)
    H = assemble(rand_array(rng, 3, 7))
    while det_exact(H) == 0:  # pragma: no cover - seed chosen to avoid this
        H = assemble(rand_array(rng, 3, 7))
    assert rank_exact(H) == 12
    for i in (1, 2, 3):
        assert block_row_rank(H, i) == 4
    with pytest.raises(ValueError):
        block_row_rank(H, 4)


def test_rank_cross_check_survives_denominators_divisible_by_p(monkeypatch):
    # 1/p has no residue mod p; the check must still run, on cleared rows.
    # The rank is not full, so the GF(p) rank certifies nothing and the Q
    # route, with its cross-check, runs.  The 1/p sits in the one summand,
    # whose third row is the sum of the first two: a matrix that split into
    # full-rank summands would take the GF(p) rank and never cross-check.
    p = WORD_PRIMES[0]
    M = [[Fraction(1, p), 1, 0], [0, 1, 1], [Fraction(1, p), 2, 1]]
    assert len(linalg.components(M)) == 1
    assert rank_exact(M) == 2
    monkeypatch.setattr(linalg, "rank_fraction", lambda rows: 1)
    with pytest.raises(AssertionError, match="mod-p rank 2 exceeds exact rank 1"):
        rank_exact(M)


def test_full_mod_p_rank_needs_no_q_elimination(monkeypatch):
    p = WORD_PRIMES[0]
    H = assemble(rand_array(random.Random(41), 3, 7))  # rank 12, as above
    zero = [[0, 0, 0], [0, 0, 0]]
    assert rank_exact(zero) == 0

    def no_q(rows):
        raise AssertionError("the Q echelon ran")

    monkeypatch.setattr(linalg, "rank_fraction", no_q)
    cases = [
        (H, 12),  # square, int
        (H.rows[:4], 4),  # wide: a block row
        ([list(c) for c in zip(*H.rows[:4])], 4),  # tall: its transpose
        ([[Fraction(1, p), 0, 0], [0, Fraction(2, 3), 1], [0, 1, 0]], 3),
        ([[Fraction(1, 2), Fraction(1, 3), 0, 7], [0, Fraction(5, p), 1, 1]], 2),
        ([[Fraction(1, p)], [Fraction(-3, 4)], [0]], 1),
        ([], 0),
        ([[]], 0),
        ([[], []], 0),
    ]
    for M, r in cases:
        assert rank_exact(M) == r
    # the zero matrix is all zero rows and columns, no summand to eliminate;
    # this one is a single summand of rank 1
    deficient = [[1, 2, 3], [2, 4, 6]]
    with pytest.raises(AssertionError, match="the Q echelon ran"):
        rank_exact(deficient)  # not full rank: the Q route


def test_q_echelon_sees_only_the_deficient_summand(monkeypatch):
    # H (rank 12 of 12) (+) a 3 x 3 block of rank 2, rows and columns
    # shuffled: the GF(p) rank settles H, and the Q echelon runs on the
    # 3 x 3 block alone, read off the pattern in sorted row and column order.
    H = assemble(rand_array(random.Random(41), 3, 7)).rows
    D = [[Fraction(1, WORD_PRIMES[0]), 1, 0], [0, 1, 1], [Fraction(1, WORD_PRIMES[0]), 2, 1]]
    S = [row + [0] * 3 for row in H] + [[0] * 12 + row for row in D]
    rng = random.Random(26)
    rs, cs = rng.sample(range(15), 15), rng.sample(range(15), 15)
    M = [[S[i][j] for j in cs] for i in rs]
    seen = []

    def recording(rows):
        seen.append([list(r) for r in rows])
        return linalg_oracle.rank_fraction(rows)

    monkeypatch.setattr(linalg, "rank_fraction", recording)
    assert rank_exact(M) == 14
    rows = sorted(rs.index(12 + i) for i in range(3))
    cols = sorted(cs.index(12 + j) for j in range(3))
    assert seen == [[[M[i][j] for j in cols] for i in rows]]


# Factor entries: one draw in four an exact zero; Fractions include 1/p.
factor_ints = st.one_of(st.just(0), st.integers(-4, 4))
factor_fractions = st.one_of(
    factor_ints, st.builds(Fraction, st.integers(-4, 4), st.sampled_from([2, 3, 12, WORD_PRIMES[0]]))
)


@st.composite
def factored_matrices(draw):
    """An r x c matrix, 1 <= r, c <= 6, of ints or of Fractions, drawn as a
    product through an inner dimension that is often narrower, so that the
    rank is often not full."""
    entries = draw(st.sampled_from([factor_ints, factor_fractions]))
    rows, inner, cols = draw(st.integers(1, 6)), draw(st.integers(0, 6)), draw(st.integers(1, 6))
    A = [[draw(entries) for _ in range(inner)] for _ in range(rows)]
    B = [[draw(entries) for _ in range(cols)] for _ in range(inner)]
    return linalg_oracle.mat_mul(A, B) if inner else [[0] * cols for _ in range(rows)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(factored_matrices())
def test_rank_exact_matches_fraction_oracle(M):
    assert rank_exact(M) == linalg_oracle.rank_fraction(M)


@pytest.mark.parametrize("k, N", [(1, 4), (2, 5), (3, 9), (4, 8), (5, 9), (6, 8), (6, 7), (7, 14)])
@pytest.mark.parametrize("kind", ["int", "fraction", "symbolic", "poly-off-keys"])
def test_assemble_matches_positional_get(k, N, kind):
    """Every cell, with its type, against the positional coefficient symbol;
    the shapes cover both parities of the closed-form sign and w = 1, 2.
    "poly-off-keys" has int coefficients and one MultiPoly at If, which no
    cell reads; the structural zeros and the missing keys are then both
    MultiPoly zeros, so the matrix holds one zero."""
    rng = random.Random(k * 100 + N)
    if kind == "symbolic":
        A = symbolic_coefficient_array(k, N)
    else:
        coeffs = {
            I: rng.randint(-3, 3) if kind != "fraction" else Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            for I in enumerate_indices(k, N)
            if rng.random() < 0.6
        }
        if kind == "poly-off-keys":
            coeffs[first_index(k, N)] = MultiPoly.variable(1, 2)
        A = ExteriorArray(k, N, coeffs)
    H = assemble(A)
    nvars = len(coefficient_names(k, N))
    zero = MultiPoly.zero(nvars) if kind == "symbolic" and nvars else 0
    if kind == "poly-off-keys":
        zero = MultiPoly.zero(2)
    for p in range(1, k + 1):
        for pp in range(1, k + 1):
            block = H.block(p, pp)
            for t in range(k + 1, N + 1):
                for tt in range(k + 1, N + 1):
                    e = block[t - k - 1][tt - k - 1]
                    want = zero if p == pp or t == tt else _positional_get(A, (t, tt), (p, pp)) or zero
                    assert e == want and type(e) is type(want), (p, t, pp, tt)


def test_det_mod_agrees_with_exact():
    rng = random.Random(43)
    p = prime_for_trial(2)
    for _ in range(5):
        H = assemble(rand_array(rng, 3, 6))
        assert det_mod(H, p) == det_exact(H) % p


def test_factor_structure_script_output_is_pinned():
    # the library's own line pipeline (det_on_line_mod: ExteriorArray,
    # assemble, det_mod), byte for byte as recorded before assemble read its
    # layout from a per-shape plan
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "factor_structure.py"), "--trials", "2"],
        env={**os.environ, "PYTHONPATH": str(root / "src")}, capture_output=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == (
        "71616f935f891c93d8ce544b7fb320f7d9cc0205ea24fa38cd66015bf9b64a33"
    )
