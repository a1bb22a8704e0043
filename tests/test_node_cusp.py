"""Degenerating frames, defining linear forms, their T -> 0 limits, and the
two-point tangency verification."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

import exterior_oracle
import node_cusp_oracle
from blockhess.certificates import load, to_array
from blockhess.exterior import ExteriorArray, act_translation, gradient
from blockhess.multiindex import (
    NodeIndexSet,
    enumerate_indices,
    first_index,
    last_index,
    sort_with_sign,
)
from blockhess.node_cusp import (
    NodeConditionError,
    NodePointSpec,
    build_x_J_T,
    cusp_membership,
    defining_forms_at,
    extra_equations,
    forms_span_equal,
    generic_node_membership,
    limit_T0,
    render_monomial,
    verify_node_pair_k3,
)
from exterior_oracle import star


def _monomial_at(m, t):
    """The value of a signed monomial (e, s), or of None (zero), at T = t."""
    if m is None:
        return Fraction(0)
    e, s = m
    return s * Fraction(t) ** e


def _form_eval_at_T(form, t):
    """Substitute a nonzero numeric T into a signed-monomial form."""
    return {I: _monomial_at(m, t) for I, m in form.items()}


def _form_apply(form, A):
    """Evaluate a rational linear form on a coefficient array."""
    return sum((c * Fraction(A.get(I)) for I, c in form.items()), Fraction(0))


def admissible_node_sets(k, N):
    """Every J in If u Il with |If n J| <= k-2, the k-2 cases included."""
    pool = first_index(k, N) + last_index(k, N)
    nodes = [NodeIndexSet(k, N, J) for J in itertools.combinations(pool, k)]
    return [node for node in nodes if len(node.in_first) <= k - 2]


#: Shapes whose every admissible J the limit claim is checked at
NODE_SHAPES = ((3, 6), (3, 7), (3, 8), (3, 9), (4, 8), (4, 9), (4, 10), (5, 10), (5, 11))


def node_cases(pinned, at_k_minus_2):
    """The (k, N, J) cases ``pinned``, then every other admissible J over
    NODE_SHAPES with |If n J| = k-2, or <= k-3 when not ``at_k_minus_2``.
    The pinned cases come first so that their test ids stay."""
    swept = [
        (k, N, node.J)
        for k, N in NODE_SHAPES
        for node in admissible_node_sets(k, N)
        if (len(node.in_first) == k - 2) == at_k_minus_2
    ]
    return pinned + [case for case in swept if case not in pinned]


def star_forms(k, N, Js):
    members = sorted(set().union(*(star(J, N) for J in Js)))
    return [{I: Fraction(1)} for I in members]


# ---------------------------------------------------------------------------
# signed monomials and the replacement r(P)


def test_render_monomial():
    cases = {
        (0, 1): "1",
        (0, -1): "-1",
        (1, 1): "T",
        (1, -1): "-T",
        (-1, 1): "T^-1",
        (-1, -1): "-T^-1",
        (2, 1): "T^2",
        (-3, -1): "-T^-3",
        None: "0",
    }
    for m, want in cases.items():
        assert render_monomial(m) == want, m
    assert _monomial_at((-1, -1), 2) == Fraction(-1, 2)
    assert _monomial_at(None, 2) == 0


def test_replace_swaps_paired_rows_with_sign():
    node = NodeIndexSet(4, 10, (2, 3, 8, 9))
    # pairing here is {1: 8, 2: 7, 3: 10, 4: 9}
    assert node.pairing == node_cusp_oracle.pairing(node) == {1: 8, 2: 7, 3: 10, 4: 9}
    idx, sign = node_cusp_oracle.replace({1}, node)
    assert (idx, sign) == ((2, 3, 4, 8), -1)
    idx, sign = node_cusp_oracle.replace(set(), node)
    assert (idx, sign) == ((1, 2, 3, 4), 1)
    with pytest.raises(ValueError):
        node_cusp_oracle.replace({5}, node)


# ---------------------------------------------------------------------------
# membership predicates


def test_membership_predicates():
    A = ExteriorArray(3, 6, {(2, 4, 6): 1, (3, 4, 5): 2})
    assert cusp_membership(A)
    A_nondeg = ExteriorArray(3, 6, {(3, 4, 5): 1, (2, 4, 6): 1, (1, 5, 6): 1})
    assert not cusp_membership(A_nondeg)  # det = 2, nonzero
    node = to_array(load("node-3-9"))
    assert generic_node_membership(node)
    spoiled = dict(node.coeffs)
    I, _ = sort_with_sign((1, 8, 9), 9)
    spoiled[I] = 1
    assert not generic_node_membership(ExteriorArray(3, 9, spoiled))


# ---------------------------------------------------------------------------
# the x(J, T) family


def test_frame_symbolic_matches_numeric():
    node = NodeIndexSet(4, 10, (2, 3, 8, 9))
    sym = build_x_J_T(NodePointSpec(node, None))
    t = Fraction(5)
    num = build_x_J_T(NodePointSpec(node, t))
    for p in range(4):
        for c in range(10):
            assert sym[p][c] is None or sym[p][c][1] == 1  # unit entries
            assert _monomial_at(sym[p][c], t) == num[p][c]
            assert type(num[p][c]) is Fraction
    # identity part and the pairing positions
    for p in range(4):
        assert num[p][p] == 1
    with pytest.raises(ValueError):
        NodePointSpec(node, Fraction(0))


def test_form_value_exponents_follow_replacement_parity():
    # the chart-form coefficient at the replaced index r(P) scales as
    # T^{|J cap P| - |Jbar cap P|} relative to r(emptyset)
    from blockhess.node_cusp import _form_for_rows, _normalized, _pair_rows

    node = NodeIndexSet(4, 10, (2, 3, 8, 9))
    F_raw = _form_for_rows(_pair_rows(NodePointSpec(node, None)))
    IJ = set(node.J)
    for P, want in [((), 0), ((1,), -1), ((2,), 1), ((3,), 1), ((4,), -1), ((1, 2), 0)]:
        I, _s = node_cusp_oracle.replace(set(P), node)
        e, s = F_raw[I]
        assert s in (1, -1)
        assert e == want, (P, e, want)
    power = -min(e for e, _ in F_raw.values())
    assert power == len([p for p in range(1, 5) if p not in IJ])
    assert _normalized(F_raw) == {I: (e + power, s) for I, (e, s) in F_raw.items()}


def test_moving_forms_match_gradient_numerically():
    from blockhess.node_cusp import _form_for_rows, _pair_rows

    rng = random.Random(7)
    t = Fraction(3)
    for k, N in ((3, 7), (4, 8)):
        A = ExteriorArray(k, N, {I: rng.randint(-4, 4) for I in enumerate_indices(k, N)})
        nodes = admissible_node_sets(k, N)
        assert any(len(node.in_first) == k - 2 for node in nodes)
        for node in nodes:
            spec = NodePointSpec(node, t)
            X = node_cusp_oracle.chart_point_at(spec)
            rows = _pair_rows(spec)
            F_raw = _form_for_rows(rows)
            assert _form_apply(_form_eval_at_T(F_raw, t), A) == exterior_oracle.evaluate_form(A, X)
            grad = gradient(act_translation(A, X))
            for p in range(1, k + 1):
                for tt in range(k + 1, N + 1):
                    rrows = list(rows)
                    rrows[p - 1] = [(tt, 0)]
                    praw = _form_for_rows(rrows)
                    got = _form_apply(_form_eval_at_T(praw, t), A) if praw else Fraction(0)
                    assert got == grad[p - 1][tt - k - 1], (node.J, p, tt)


def test_form_for_rows_matches_first_row_expansion():
    # F and each replaced-row partial of defining_forms_at, for every
    # admissible J: the row choices give the same minors, exponents and signs
    # as expanding each of the C(N, k) minors along its first row
    from blockhess.node_cusp import _form_for_rows, _moving_selection, _pair_rows

    for k, N in ((3, 6), (3, 7), (4, 8), (4, 9), (5, 10)):
        for node in admissible_node_sets(k, N):
            rows = _pair_rows(NodePointSpec(node, None))
            frames = [rows] + [rows[: p - 1] + [[(t, 0)]] + rows[p:] for p, t in _moving_selection(node)]
            for frame in frames:
                assert _form_for_rows(frame) == node_cusp_oracle.form_for_rows(frame, k, N), (node.J, frame)


def test_sparse_minor_raises_on_a_second_term():
    # Rows (1, T) and (1, 1) share both columns, so the minor 1 - T has two
    # terms; no x(J, T) frame, with or without a replaced row, has this shape.
    from blockhess.node_cusp import _form_for_rows

    with pytest.raises(AssertionError, match="second term"):
        _form_for_rows([[(1, 0), (2, 1)], [(1, 0), (2, 0)]])


# ---------------------------------------------------------------------------
# defining forms and limits


@pytest.mark.parametrize(
    "k,N,J",
    node_cases(
        [
            (3, 7, (5, 6, 7)),
            (4, 8, (5, 6, 7, 8)),
            (4, 8, (1, 6, 7, 8)),
            (4, 9, (6, 7, 8, 9)),
            (4, 9, (1, 7, 8, 9)),
            (4, 9, (4, 6, 7, 8)),
        ],
        at_k_minus_2=False,
    ),
)
def test_limits_span_both_stars_when_meet_is_small(k, N, J):
    node = NodeIndexSet(k, N, J)
    forms = defining_forms_at(NodePointSpec(node, None))
    assert list(forms) == ["base_forms", "moving_forms"]
    assert len(forms["moving_forms"]) == k * (N - k) + 1
    assert forms["moving_forms"][0]["label"] == "F"
    assert not any(m["replaced"] for m in forms["moving_forms"])  # no k-2 replacement needed here
    lims = limit_T0(forms)
    assert len(lims) == 2 * (k * (N - k) + 1)
    assert forms_span_equal(lims, star_forms(k, N, [first_index(k, N), J]), k, N)


@pytest.mark.parametrize("k,N,J", node_cases([(4, 8, (1, 2, 7, 8))], at_k_minus_2=True))
def test_limits_span_with_extras_at_meet_k_minus_2(k, N, J):
    node = NodeIndexSet(k, N, J)
    extras = node_cusp_oracle.extra_equations(node)
    assert len(extras) == 4
    assert all(len(f) == k - 2 for f in extras)  # one term per j in If n J
    assert list(extra_equations(node)) == extras
    forms = defining_forms_at(NodePointSpec(node, None))
    assert sum(m["replaced"] for m in forms["moving_forms"]) == 4
    lims = limit_T0(forms)
    # the limits are Fractions, as the benchmark digests record them
    assert all(type(c) is Fraction for f in lims for c in f.values())
    target = star_forms(k, N, [first_index(k, N), J]) + extras
    assert forms_span_equal(lims, target, k, N)


def test_defining_forms_reject_a_negative_power():
    # limit_T0 takes T = 0, where a T^-1 term would otherwise be dropped
    forms = {"base_forms": [], "moving_forms": [{"label": "F", "replaced": False, "form": {(1, 2, 3): (0, 1)}}]}
    assert limit_T0(forms) == [{(1, 2, 3): 1}]
    forms["moving_forms"][0]["form"][(1, 2, 4)] = (-1, -1)
    with pytest.raises(AssertionError, match="negative T power"):
        limit_T0(forms)


def test_node_system_cap_is_checked_in_the_spec():
    # (3, N) holds up to (3(N-3) + 1) * 2^3 monomials: 524,288, the cap, at N = 21,848
    from blockhess.node_cusp import NODE_SYSTEM_CAP

    at_cap = NodeIndexSet(3, 21848, (1, 21847, 21848))
    assert (3 * (21848 - 3) + 1) * 8 == NODE_SYSTEM_CAP
    for T in (None, 2):
        assert NodePointSpec(at_cap, T).J is at_cap
        with pytest.raises(ValueError, match="over the cap of 524288"):
            NodePointSpec(NodeIndexSet(3, 21849, (1, 21848, 21849)), T)
    with pytest.raises(ValueError, match=r"the \(13,26\) node system holds up to 1392640 monomials"):
        NodePointSpec(NodeIndexSet(13, 26, tuple(range(1, 12)) + (25, 26)))


def test_defining_forms_rejects_large_meet():
    with pytest.raises(ValueError):
        defining_forms_at(NodePointSpec(NodeIndexSet(3, 7, (1, 2, 7)), None))
    with pytest.raises(ValueError):
        extra_equations(NodeIndexSet(4, 8, (5, 6, 7, 8)))  # meet 0, not k-2


# ---------------------------------------------------------------------------
# node pair verification, k = 3


def test_verify_node_pair_frozen_report():
    A = to_array(load("node-3-9"))
    report = verify_node_pair_k3(A, completion_seed=0)
    assert report["pass"] is True
    assert report["k"] == 3 and report["N"] == 9
    assert report["free_coefficients"] == 9
    assert report["det_H0"] == -27556
    assert report["det_H1"] == -27556
    assert report["condition_i"] == "holds"
    assert report["condition_ii"] == {
        "block": "A23",
        "signs": {"B12": "+1", "B13": "-1", "B23": "+1"},
    }
    assert report["condition_iii"] == {
        "block": "A13",
        "signs": {"B12": "-1", "B13": "+1", "B23": "-1"},
    }
    assert report["condition_iv"]["derived"] == {
        "block": "A12",
        "signs": {"B12": "+1", "B13": "-1", "B23": "+1"},
    }
    assert report["condition_iv"]["literal_A23_holds"] is False


# sha256 of json.dumps(report, sort_keys=True) for each node certificate and
# completion seed, recorded before condition (i) was reduced to its
# coefficient form and the sign classifier to equal-or-negated
PINNED_NODE_REPORTS = {
    ("node-3-9", 0): "1f022794aea067c9a0a56881b52379c28ac535d9bf2b6bd9c1d45d1595f07a9c",
    ("node-3-9", 1): "f45fbfbcc3700785256e42463997adecbddadf1a7aa59f8acee717551ebadeb8",
    ("node-3-9", 7): "426e960854bed6fdf0812cc87fa451bcb5f3774779d0f75d1582fa97139cad7c",
    ("node-3-10", 0): "1b57d7e0078c3977f1f568c5f5079bb34757a6e43c4b15751dde8580dd692745",
    ("node-3-10", 1): "827de7a0a47ce0bf9a6e33b84da611df7ec98f5296ebb5f381f1ff13a9e21e72",
    ("node-3-10", 7): "61ef52ef175acb1e72c19d47b986ff3513f0b02b448b78b3d640d74b488d642f",
    ("node-3-11", 0): "90dce8730bdc99bdbb9a03bf7d2a45a52ba4d2f61ead84b50ea225bc6f91bfc7",
    ("node-3-11", 1): "55c9285e96c447290580adcf20676a8e5594a09e69d49e2c1ed085e6308392b5",
    ("node-3-11", 7): "defd81d226be6f89065941cc1854ffb4025b33878aa9bb54e6e346d9cc5f46ae",
}


@pytest.mark.parametrize("cid,seed", sorted(PINNED_NODE_REPORTS))
def test_verify_node_pair_reports_pinned(cid, seed):
    report = verify_node_pair_k3(to_array(load(cid)), completion_seed=seed)
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == PINNED_NODE_REPORTS[cid, seed]


# the same digests for seeded arrays with both stars zero, drawn below at
# densities 1, 0.3 or 0.1, so that 10 of the 12 reports hold a "zero" sign;
# recorded with the same code as PINNED_NODE_REPORTS
PINNED_RANDOM_REPORTS = {
    (9, 0): "dbaf92675c4e455906f0e5d7390d37446c1c2c9b6a2428ab13c5164a41b2484b",
    (9, 1): "5fca79e2bffb2fc6d3511d700a57d859e6392895d6aca01c6dbdf109841c6e98",
    (9, 2): "a0c61a16c1908ce30b7c3a449658022588a9ea0c7b6705cc3ce1d30e9537300a",
    (10, 0): "0d6648324c276fc09baa280c22afe96a25063934f965bc467f2116f91702f933",
    (10, 1): "3316503aab89463a5360e41c18d2ce8b79067067d7681e52ca7ac8acc95fe606",
    (10, 2): "d523379dba561e65476a817c5d4315a154b54d61ffd8db631cf99f123a399e67",
    (11, 0): "52fb9f0e3061246c36eb0a9639438ecdf79bf0fc11e22bb01594cb73c317a073",
    (11, 1): "9921a0033e609acdd31826c7366130319d007e3188135c44027c8c4ce2e4d0dc",
    (11, 2): "c074ac8c799c3cf10e080ad322cf21fbd4c468b579c81f95d43b684c328cefd1",
    (12, 0): "2acb13a107227c896532bf1dd86739ee9c00a2da2e9fd4c22616e28b301b75b5",
    (12, 1): "62ecb3ab068d313e42341228d99bcc4eba215f8b856f2fcc034df87ae72330c3",
    (12, 2): "9da3fdd61586eda684118d5d2f2c2532787ed4283478244903a38ede3a772031",
}


@pytest.mark.parametrize("N,seed", sorted(PINNED_RANDOM_REPORTS))
def test_verify_node_pair_holds_on_arrays_with_both_stars_zero(N, seed):
    # generic_node_membership is all of condition (i): its matrix forms
    # follow from it, and conditions (ii)-(iv) compare the same coefficients
    # read from two layouts, so no array with both stars zero fails them
    from blockhess.hessian import assemble, assemble_dual

    rng = random.Random(f"node-pair:{N}:{seed}")
    If, Il = first_index(3, N), last_index(3, N)
    stars = star(If, N) | star(Il, N)
    density = rng.choice((0.1, 0.3, 1.0))
    coeffs = {I: rng.randint(-2, 2) for I in enumerate_indices(3, N) if I not in stars and rng.random() < density}
    report = verify_node_pair_k3(ExteriorArray(3, N, coeffs), seed)
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == PINNED_RANDOM_REPORTS[N, seed]
    # the last 3x3 of each A block, and the first 3x3 of each B block after
    # filling every index with no entry in If (a superset of the completion)
    fill = {I: rng.randint(-2, 2) for I in enumerate_indices(3, N) if not set(I) & set(If)}
    H0, H1 = assemble(ExteriorArray(3, N, coeffs)), assemble_dual(ExteriorArray(3, N, {**coeffs, **fill}))
    for i, j in ((1, 2), (1, 3), (2, 3)):
        assert not any(e for row in H0.block(i, j)[-3:] for e in row[-3:])
        assert not any(e for row in H1.block(i, j)[:3] for e in row[:3])
    for center in (If, Il):
        spoiled = {**coeffs, rng.choice(sorted(star(center, N))): rng.choice((-2, -1, 1, 2))}
        with pytest.raises(NodeConditionError, match=r"condition \(i\)"):
            verify_node_pair_k3(ExteriorArray(3, N, spoiled), seed)


def test_verify_node_pair_on_the_zero_array():
    # every compared row and column vanishes, so both readings of (iv) hold
    report = verify_node_pair_k3(ExteriorArray(3, 9, {}), 0)
    zero = {"B12": "zero", "B13": "zero", "B23": "zero"}
    assert report["condition_ii"]["signs"] == report["condition_iii"]["signs"] == zero
    assert report["condition_iv"] == {"derived": {"block": "A12", "signs": zero}, "literal_A23_holds": True}
    assert (report["det_H0"], report["completion_seed"], report["pass"]) == (0, None, False)


def test_verify_node_pair_seed_changes_completion_only():
    A = to_array(load("node-3-9"))
    r0 = verify_node_pair_k3(A, completion_seed=0)
    r1 = verify_node_pair_k3(A, completion_seed=1)
    assert r0["det_H0"] == r1["det_H0"]  # H0 does not depend on the seed
    assert r0["condition_ii"] == r1["condition_ii"]
    assert r1["pass"]


def test_verify_node_pair_rejects_zero_pattern_violation():
    A = to_array(load("node-3-9"))
    spoiled = dict(A.coeffs)
    I, _ = sort_with_sign((1, 8, 9), 9)
    spoiled[I] = 1
    with pytest.raises(NodeConditionError):
        verify_node_pair_k3(ExteriorArray(3, 9, spoiled), 0)


def test_verify_node_pair_rejects_wrong_shape():
    with pytest.raises(ValueError):
        verify_node_pair_k3(ExteriorArray(4, 10, {}), 0)
    with pytest.raises(ValueError):
        verify_node_pair_k3(ExteriorArray(3, 8, {}), 0)


def test_deleting_shared_coefficient_keeps_sides_in_sync():
    # conditions (ii)-(iv) equate coefficients read from two layouts; a
    # deleted coefficient disappears from both sides at once, so the
    # comparison stays consistent (zero matches zero)
    A = to_array(load("node-3-9"))
    coeffs = dict(A.coeffs)
    I, _ = sort_with_sign((1, 4, 9), 9)
    del coeffs[I]
    report = verify_node_pair_k3(ExteriorArray(3, 9, coeffs), 0)
    assert report["condition_ii"]["block"] == "A23"
