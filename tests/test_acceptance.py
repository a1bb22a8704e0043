"""Acceptance suite: one test per criterion, each with its runtime budget.

Every test here re-derives its expectation through an independent route
(term calculus, prime-field interpolation, brute-force enumeration) rather
than trusting the module under test, and asserts the wall-clock budget the
criterion states.
"""

import random
import time
from fractions import Fraction

import exterior_oracle
from blockhess.certificates import CERTIFICATE_IDS, load, to_array, to_hessian, verify
from blockhess.degree import feasible_degrees
from blockhess.exterior import ChartPoint, ExteriorArray, act_translation, is_critical
from blockhess.hessian import (
    assemble,
    assemble_symbolic,
    block_row_rank,
    det_exact,
    det_mod,
    dualize_layout,
    rank_exact,
    specialize_embed,
    symbolic_coefficient_array,
)
from blockhess.irreducibility import run_schedule
from blockhess.linalg import det_exact_generic
from blockhess.multiindex import (
    NodeIndexSet,
    enumerate_indices,
    first_index,
    last_index,
)
from blockhess.node_cusp import (
    NodePointSpec,
    defining_forms_at,
    extra_equations,
    forms_span_equal,
    limit_T0,
)
from blockhess.ring import (
    MultiPoly,
    lagrange_interpolate_mod,
    prime_for_trial,
    uni_root_structure_mod,
)
from exterior_oracle import star


def rand_array(rng, k, N, lo=-4, hi=4):
    return ExteriorArray(k, N, {I: rng.randint(lo, hi) for I in enumerate_indices(k, N)})


def line_restriction_coeffs(k, N, base, direction, p, degree_bound):
    """Coefficients of s -> det H(base + s * direction) over F_p."""
    xs = list(range(degree_bound + 1))
    ys = []
    for s in xs:
        A = ExteriorArray(k, N, {I: (base.get(I) + s * direction.get(I)) % p for I in enumerate_indices(k, N)})
        ys.append(det_mod(assemble(A), p))
    return lagrange_interpolate_mod(xs, ys, p)


def is_power_up_to_constant(coeffs, r, p):
    if all(c == 0 for c in coeffs):
        return True
    return uni_root_structure_mod(coeffs, r, p) is not None


# ---------------------------------------------------------------------------


def test_criterion_01_corank_certificates():
    """Six corank-one records: rank k(N-k)-1, all block rows full; < 10 s."""
    t0 = time.monotonic()
    ids = [cid for cid in CERTIFICATE_IDS if cid.startswith("corank-")]
    assert ids == [
        "corank-3-9",
        "corank-3-10",
        "corank-3-11",
        "corank-4-8",
        "corank-4-9",
        "corank-5-10",
    ]
    for cid in ids:
        cert = load(cid)
        H = to_hessian(cert)
        side = cert.k * (cert.N - cert.k)
        assert rank_exact(H) == side - 1, cid
        for i in range(1, cert.k + 1):
            assert block_row_rank(H, i) == cert.N - cert.k, (cid, i)
        report = verify(cert)
        assert report["pass"], cid
    assert time.monotonic() - t0 < 10.0


def test_criterion_02_invertibility_certificate():
    """The 16 x 16 record has nonzero integer determinant, exactly; < 1 s."""
    t0 = time.monotonic()
    H = to_hessian(load("invertible-4-8"))
    d = det_exact(H)
    assert isinstance(d, int) or (isinstance(d, Fraction) and d.denominator == 1)
    assert d != 0
    assert d == 1  # frozen value
    assert time.monotonic() - t0 < 1.0


def test_criterion_03_node_certificates():
    """Node pairs N = 9, 10, 11: conditions (i)-(iv) and both completed
    determinants nonzero within 8 completion seeds; < 30 s."""
    t0 = time.monotonic()
    for cid in ("node-3-9", "node-3-10", "node-3-11"):
        report = verify(cid, completion_seed=0)
        assert report["pass"], cid
        node = report["node"]
        assert node["condition_i"] == "holds"
        assert node["condition_ii"]["signs"]
        assert node["condition_iii"]["signs"]
        assert node["condition_iv"]["derived"]["signs"]
        assert node["det_H0"] != 0
        assert node["det_H1"] != 0
        assert node["completion_seed"] < 8
    assert time.monotonic() - t0 < 30.0


def test_criterion_04_det_identity_3_6():
    """det of the symbolic (3,6) matrix minus twice the cube of the 3 x 3
    coefficient determinant is the zero polynomial; 20 prime-field point
    corroborations; < 5 min symbolic, < 1 s for the points."""
    t0 = time.monotonic()
    A = symbolic_coefficient_array(3, 6)
    M_rows = (
        ((3, 4, 5), (3, 4, 6), (3, 5, 6)),
        ((2, 4, 5), (2, 4, 6), (2, 5, 6)),
        ((1, 4, 5), (1, 4, 6), (1, 5, 6)),
    )
    D = det_exact(assemble(A))
    M = [[A.get(I) for I in row] for row in M_rows]
    dM = det_exact_generic(M)
    diff = D - dM * dM * dM * MultiPoly.const(D.nvars, 2)
    assert diff.is_zero()
    assert time.monotonic() - t0 < 300.0

    t1 = time.monotonic()
    support = [I for I in enumerate_indices(3, 6) if A.get(I) != 0]
    rng = random.Random("criterion-04")
    for trial in range(20):
        p = prime_for_trial(trial)
        point = {I: rng.randrange(p) for I in support}
        lhs = det_mod(assemble(ExteriorArray(3, 6, point)), p)
        Mi = [[point.get(I, 0) for I in row] for row in M_rows]
        assert lhs == 2 * pow(det_exact_generic(Mi), 3, p) % p
    assert time.monotonic() - t1 < 1.0


def test_criterion_05_line_restriction_factor_structure():
    """det of (3,6) restricted to 20 random lines is a perfect cube up to
    constant; (3,7) a perfect square; < 5 s per trial."""
    rng = random.Random("criterion-05")
    for trial in range(20):
        t0 = time.monotonic()
        p = prime_for_trial(trial)
        base36 = rand_array(rng, 3, 6, 0, p - 1)
        dir36 = rand_array(rng, 3, 6, 0, p - 1)
        coeffs = line_restriction_coeffs(3, 6, base36, dir36, p, 9)
        assert is_power_up_to_constant(coeffs, 3, p), ("(3,6)", trial)
        base37 = rand_array(rng, 3, 7, 0, p - 1)
        dir37 = rand_array(rng, 3, 7, 0, p - 1)
        coeffs = line_restriction_coeffs(3, 7, base37, dir37, p, 12)
        assert is_power_up_to_constant(coeffs, 2, p), ("(3,7)", trial)
        assert time.monotonic() - t0 < 5.0


def test_criterion_06_degree_arithmetic():
    """Frozen feasible-degree sets; instantaneous."""
    t0 = time.monotonic()
    assert feasible_degrees(3, 6) == (3, 6, 9)
    assert feasible_degrees(3, 7) == (6, 12)
    assert feasible_degrees(3, 8) == (15,)
    assert feasible_degrees(3, 10) == (21,)
    assert feasible_degrees(5, 12) == (35,)
    assert time.monotonic() - t0 < 1.0


def test_criterion_07_irreducibility_schedule():
    """Schedule verdicts: (3,11) decided by the {3,3,3,15} and {6,6,6,6}
    patterns; k = 3 irreducible through N = 20, k = 4 through N = 16;
    (5,11) decided by {15,15} and {3,3,3,3,18}; < 10 s."""
    t0 = time.monotonic()
    rec3 = {(r["k"], r["N"]): r for r in run_schedule(3, 20)}
    for N in range(8, 21):
        r = rec3[(3, N)]
        assert r["status"] in ("base", "irreducible"), (N, r["status"])
        if r["status"] == "irreducible":
            assert r["verdict"]["irreducible"] is True
    r311 = rec3[(3, 11)]
    pat_degrees = {tuple(p["degrees"]) for p in r311["verdict"]["patterns"]}
    assert (3, 3, 3, 15) in pat_degrees
    assert (6, 6, 6, 6) in pat_degrees

    rec4 = {(r["k"], r["N"]): r for r in run_schedule(4, 16)}
    for N in range(8, 17):
        r = rec4[(4, N)]
        assert r["status"] in ("base", "irreducible"), (N, r["status"])

    rec5 = {(r["k"], r["N"]): r for r in run_schedule(5, 11)}
    r511 = rec5[(5, 11)]
    assert r511["status"] in ("base", "irreducible")
    pat_degrees = {tuple(p["degrees"]) for p in r511["verdict"]["patterns"]}
    assert (15, 15) in pat_degrees
    assert (3, 3, 3, 3, 18) in pat_degrees
    assert time.monotonic() - t0 < 10.0


def test_criterion_08_duality():
    """The duality reordering of symbolic (3,7) shows the (4,7) block-zero
    pattern and preserves the determinant; 10 numeric arrays each for
    (3,7) and (3,8); < 10 s."""
    t0 = time.monotonic()
    Hd = dualize_layout(assemble_symbolic(3, 7))
    assert (Hd.k, Hd.N) == (4, 7)
    assert Hd.is_structurally_valid()
    for p in range(1, 5):
        blk = Hd.block(p, p)
        assert all(
            e == 0 or (isinstance(e, MultiPoly) and e.is_zero()) for row in blk for e in row
        )
    rng = random.Random("criterion-08")
    for k, N in ((3, 7), (3, 8)):
        for _ in range(10):
            H = assemble(rand_array(rng, k, N))
            Hd = dualize_layout(H)
            assert Hd.is_structurally_valid()
            assert det_exact(Hd) == det_exact(H)
    assert time.monotonic() - t0 < 10.0


def test_criterion_09_specialization_multiplicativity():
    """det(specialize_embed) = det x det on 20 random pairs per shape; < 10 s."""
    t0 = time.monotonic()
    rng = random.Random("criterion-09")
    for k, a, b in ((3, 6, 6), (4, 6, 8)):
        for _ in range(20):
            H1 = assemble(rand_array(rng, k, a))
            H2 = assemble(rand_array(rng, k, b))
            E = specialize_embed(H1, H2)
            assert det_exact(E) == det_exact(H1) * det_exact(H2)
    assert time.monotonic() - t0 < 10.0


def admissible_Js(k, N, max_meet):
    import itertools

    If, Il = first_index(k, N), last_index(k, N)
    out = []
    for r in range(0, max_meet + 1):
        for fpart in itertools.combinations(If, r):
            for lpart in itertools.combinations(Il, k - r):
                out.append(tuple(sorted(fpart + lpart)))
    return out


def star_forms(k, N, Js):
    members = sorted(set().union(*(star(J, N) for J in Js)))
    return [{I: Fraction(1)} for I in members]


def test_criterion_10_limit_spans():
    """T -> 0 limits of the defining forms span exactly the two-star
    coordinate span for every admissible J with meet <= k-3 on (3,7),
    (4,8), (4,9); with meet k-2 on (4,8) the span gains exactly the four
    extra equations; exact row reduction; < 60 s."""
    t0 = time.monotonic()
    for k, N in ((3, 7), (4, 8), (4, 9)):
        for J in admissible_Js(k, N, k - 3):
            node = NodeIndexSet(k, N, J)
            forms = defining_forms_at(NodePointSpec(node, None))
            lims = limit_T0(forms)
            assert len(lims) == 2 * (k * (N - k) + 1), (k, N, J)
            target = star_forms(k, N, [first_index(k, N), J])
            assert forms_span_equal(lims, target, k, N), (k, N, J)
    for J in admissible_Js(4, 8, 2):
        node = NodeIndexSet(4, 8, J)
        if len(node.in_first) != 2:
            continue
        forms = defining_forms_at(NodePointSpec(node, None))
        lims = limit_T0(forms)
        target = star_forms(4, 8, [first_index(4, 8), J]) + list(extra_equations(node))
        assert forms_span_equal(lims, target, 4, 8), J
    assert time.monotonic() - t0 < 60.0


def test_criterion_11_k2_parity():
    """k = 2 determinant vanishes identically at odd N (10 arrays each for
    N = 5, 7, 9) and is nonzero generically at even N = 4, 6, 8; < 5 s."""
    t0 = time.monotonic()
    rng = random.Random("criterion-11")
    for N in (5, 7, 9):
        for _ in range(10):
            assert det_exact(assemble(rand_array(rng, 2, N))) == 0
    for N in (4, 6, 8):
        assert any(
            det_exact(assemble(rand_array(rng, 2, N))) != 0 for _ in range(10)
        ), N
    assert time.monotonic() - t0 < 5.0


def test_criterion_12_zeroed_block_perfect_square():
    """(4,8) with the A34 block zeroed: the determinant restricted to 20
    random lines inside that locus is a perfect square; < 30 s."""
    t0 = time.monotonic()
    rng = random.Random("criterion-12")

    def zeroed(A):
        coeffs = {}
        for I, c in sorted(A.coeffs.items()):
            s = set(I)
            # indices using both row positions 3 and 4 feed the A34 block:
            # they meet {1,2,3,4} exactly in {3,4}
            if s & {1, 2, 3, 4} == {3, 4}:
                continue
            coeffs[I] = c
        return ExteriorArray(4, 8, coeffs)

    for trial in range(20):
        p = prime_for_trial(trial)
        base = zeroed(rand_array(rng, 4, 8, 0, p - 1))
        direction = zeroed(rand_array(rng, 4, 8, 0, p - 1))
        coeffs = line_restriction_coeffs(4, 8, base, direction, p, 16)
        assert is_power_up_to_constant(coeffs, 2, p), trial
    assert time.monotonic() - t0 < 30.0


def test_criterion_13_translation_equivariance():
    """Criticality and assembly commute with translations on 50 instances
    across (3,6), (3,7), (4,8); < 30 s."""
    t0 = time.monotonic()
    rng = random.Random("criterion-13")
    shapes = [(3, 6)] * 17 + [(3, 7)] * 17 + [(4, 8)] * 16
    for k, N in shapes:
        A = rand_array(rng, k, N, -2, 2)
        X = ChartPoint.from_rows(
            k, N, [[Fraction(rng.randint(-2, 2)) for _ in range(N - k)] for _ in range(k)]
        )
        B = act_translation(A, X)
        # assembly commutes: the translated array's matrix at 0 equals the
        # second partials of the original form at X (independent route)
        assert assemble(B).rows == exterior_oracle.second_partials(A, X)
        # criticality commutes, against the expanded polynomial at X
        assert is_critical(B) == exterior_oracle.is_critical(A, X)
    assert time.monotonic() - t0 < 30.0
