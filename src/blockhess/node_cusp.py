"""Cusp/node membership tests, the x(J, T) family, and T -> 0 limit forms.

The cusp locus is cut out by criticality plus a vanishing Hessian
determinant.  The node loci come in two flavours: the generic one (second
tangency point at the opposite coordinate point, no shared basis vectors)
and the special ones, indexed by a multiindex J meeting both end blocks.
For the special ones the second tangency point is pushed along the curve
x(J, T); this module computes the defining linear forms of the tangency
conditions at x(J, T) exactly, with T kept symbolic, normalizes them, and
takes the T = 0 limit.

Conventions:

* A "linear form" on the coefficient space is a dict mapping a sorted
  multiindex I to the coefficient of a_I: a Fraction for the T = 0 limits,
  and a signed monomial for the forms at x(J, T).
* A signed monomial is a pair (e, s) of ints standing for s * T^e with
  s = +-1.  ``None`` stands for zero where a frame entry may vanish.

A pair is all a defining-form coefficient ever needs, because each is one
signed monomial +-T^e and no sum or product of them is ever formed.  Row p
of the x(J, T) frame is nonzero only at columns p and pairing(p); the
pairing maps If one-to-one into Il, and If and Il are disjoint because
N >= 2k.  So each column lies in at most one frame row, except that a
partial derivative replaces one row by a single unit column, which may be
shared with one other row.  The replaced row has one column and cannot lie
on a cycle, so the row-column incidence graph is a forest, every submatrix
keeps that property, and a forest has at most one perfect matching: each
minor has at most one nonzero term.  So a form is built from the at most
2**k ways to pick one column per frame row, each choice at distinct columns
giving the whole minor on those columns, and never from the C(N, k) minors
one by one.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .exterior import ExteriorArray, _star_vanishes, is_critical
from .hessian import assemble, assemble_dual, det_exact
from .linalg import rank_fraction, span_equal
from .multiindex import (
    MultiIndex,
    NodeIndexSet,
    first_index,
    last_index,
    replacement_pairing,
    sort_with_sign,
)
from .ring import Scalar

Monomial = tuple[int, int]
LinearForm = dict[MultiIndex, Monomial]
RationalForm = dict[MultiIndex, Fraction]


def render_monomial(m: Monomial | None) -> str:
    """Human-readable rendering of s * T^e; ``None`` is zero.

    >>> [render_monomial(m) for m in ((0, 1), (0, -1), (1, 1), (-1, -1), (2, 1), None)]
    ['1', '-1', 'T', '-T^-1', 'T^2', '0']
    """
    if m is None:
        return "0"
    e, s = m
    if e == 0:
        return str(s)
    tpow = "T" if e == 1 else f"T^{e}"
    return tpow if s == 1 else f"-{tpow}"


# ---------------------------------------------------------------------------
# Membership predicates


def cusp_membership(A: ExteriorArray) -> bool:
    """True iff the form is critical at the base coordinate point (no
    coefficient in the star of If) and the Hessian determinant there
    vanishes."""
    return is_critical(A) and det_exact(assemble(A)) == 0


def generic_node_membership(A: ExteriorArray) -> bool:
    """True iff a_I = 0 whenever I meets the first or the last block in at
    least k-1 elements.

    This is the coefficient form of double tangency at the two opposite
    coordinate points: every coefficient in the star of If and of Il
    vanishes.
    """
    return _star_vanishes(A, first_index(A.k, A.N)) and _star_vanishes(A, last_index(A.k, A.N))


# ---------------------------------------------------------------------------
# The x(J, T) family


class NodePointSpec:
    """A choice of second-tangency pattern J together with a parameter T.

    ``T=None`` means symbolic: downstream computations carry T as a formal
    variable.  Numeric T must be nonzero.
    """

    __slots__ = ("J", "T")

    def __init__(self, J: NodeIndexSet, T: Scalar | None = None):
        if T is not None and Fraction(T) == 0:
            raise ValueError("T = 0 is not a point of the family; use the T -> 0 limit forms")
        self.J = J
        self.T = T


def _pair_rows(spec: NodePointSpec) -> list[list[tuple[int, int]]]:
    """Row-sparse frame of x(J, T): row p holds 1 in column p and T^{+-1}
    in column pairing(p), each entry a (column, T-exponent) pair of a unit
    monomial.  Columns are 1-based."""
    node = spec.J
    pairing = replacement_pairing(node)
    in_first = set(node.in_first)
    return [[(p, 0), (pairing[p], 1 if p in in_first else -1)] for p in range(1, node.k + 1)]


def build_x_J_T(spec: NodePointSpec) -> tuple[tuple[object, ...], ...]:
    """The k x N coordinate matrix of x(J, T).

    Identity in the first k columns, T at (r, pairing(r)) for r in If∩J,
    T^-1 at (r, pairing(r)) for r in If\\J.  Entries are Fractions for
    numeric T; for symbolic T they are signed monomials, ``None`` for zero.
    """
    node = spec.J
    k, N = node.k, node.N
    dense: list[list[object]] = [[None if spec.T is None else Fraction(0)] * N for _ in range(k)]
    for p0, entries in enumerate(_pair_rows(spec)):
        for col, exp in entries:
            dense[p0][col - 1] = (exp, 1) if spec.T is None else Fraction(spec.T) ** exp
    return tuple(tuple(row) for row in dense)


# ---------------------------------------------------------------------------
# Defining forms at x(J, T) and their T -> 0 limits


def _form_for_rows(rows: list[list[tuple[int, int]]]) -> LinearForm:
    """The k x k minors of a frame whose rows hold (column, T-exponent) unit
    entries, as a form on the C(N, k) multiindices.

    A term of a minor picks one entry per row at distinct columns, so only
    the at most 2**k row choices can reach a multiindex.  The module
    docstring shows that no two of them reach the same one; a second term
    raises AssertionError.
    """
    form: LinearForm = {}
    for choice in itertools.product(*rows):
        I, s = sort_with_sign([c for c, _ in choice])
        if not s:
            continue
        if I in form:
            raise AssertionError(f"minor on columns {I} has a second term")
        form[I] = (sum(e for _, e in choice), s)
    return form


def _normalized(form: LinearForm) -> LinearForm:
    """Multiply by the minimal T power making every exponent >= 0 with at
    least one exponent equal to 0."""
    if not form:
        raise ValueError("cannot normalize an identically zero form")
    low = min(e for e, _ in form.values())
    if low == 0:
        return form
    return {I: (e - low, s) for I, (e, s) in form.items()}


def _base_forms(k: int, N: int) -> list[LinearForm]:
    If = first_index(k, N)
    forms: list[LinearForm] = [{If: (0, 1)}]
    for p in range(1, k + 1):
        for t in range(k + 1, N + 1):
            values = list(If)
            values[p - 1] = t
            I, s = sort_with_sign(values, N)
            forms.append({I: (0, s)})
    return forms


def _moving_selection(node: NodeIndexSet) -> list[tuple[int, int]]:
    """The k(N-k) partial-derivative slots (p, t): chart columns except the
    T^-1 positions, plus the frame diagonal at each row p of If \\ J."""
    k, N = node.k, node.N
    pairing = replacement_pairing(node)
    f_out = [p for p in range(1, k + 1) if p not in node.in_first]
    slots = [(p, t) for p in range(1, k + 1) for t in range(k + 1, N + 1) if p not in f_out or pairing[p] != t]
    return slots + [(p, p) for p in f_out]


def defining_forms_at(spec: NodePointSpec) -> dict:
    """The linear system cutting out double tangency along x(J, T), as
    ``{"base_forms": [...], "moving_forms": [{"label", "replaced", "form"}]}``:
    the T-independent forms of tangency at the first coordinate point (the
    star of If), then F and its selected partials at x(J, T), each
    T-normalized so that T = 0 is a regular value.

    Requires k >= 3 and |If ∩ J| <= k-2.  In the k-2 case the four forms whose T = 0
    value would duplicate coordinates already present in the base system
    (the two cross partials at (t, alpha') and (t', alpha) and the two
    diagonal partials at (t, t) and (t', t')) are replaced by
    (form - constant part) / T, which is exactly the subtract-and-divide
    step producing the four additional equations; ``replaced`` flags them.
    """
    node = spec.J
    k, N = node.k, node.N
    meet = len(node.in_first)
    if k < 3:
        raise ValueError(f"the node family's defining forms need k >= 3, got k = {k}")
    if meet > k - 2:
        raise ValueError(
            f"|If ∩ J| = {meet} exceeds k-2 = {k - 2}; the tangency family degenerates"
        )
    rows = _pair_rows(spec)
    special: set[tuple[int, int]] = set()
    if meet == k - 2:
        pairing = replacement_pairing(node)
        t1, t2 = (p for p in range(1, k + 1) if p not in node.in_first)
        special = {(t1, pairing[t2]), (t2, pairing[t1]), (t1, t1), (t2, t2)}

    moving = [{"label": "F", "replaced": False, "form": _normalized(_form_for_rows(rows))}]
    for p, t in _moving_selection(node):
        replaced_rows = list(rows)
        replaced_rows[p - 1] = [(t, 0)]
        label = f"d[{p},{t}]"
        form = _normalized(_form_for_rows(replaced_rows))
        replaced = (p, t) in special
        if replaced:
            # (form - constant part) / T, on monomial coefficients
            form = {I: (e - 1, s) for I, (e, s) in form.items() if e}
            if not form:
                raise AssertionError(f"special form {label} vanished after stripping")
        moving.append({"label": label, "replaced": replaced, "form": form})
    return {"base_forms": _base_forms(k, N), "moving_forms": moving}


def limit_T0(forms: dict) -> list[RationalForm]:
    """Evaluate every form of a :func:`defining_forms_at` record at T = 0
    and check linear independence.

    A negative T power left by the normalization raises AssertionError
    before T = 0 would drop it; dependence signals a wrong normalization
    (or an inadmissible J) and is raised, never swallowed.
    """
    flat = forms["base_forms"] + [m["form"] for m in forms["moving_forms"]]
    if any(e < 0 for f in flat for e, _ in f.values()):
        raise AssertionError("negative T power survived normalization")
    limits: list[RationalForm] = [{I: Fraction(s) for I, (e, s) in f.items() if not e} for f in flat]
    r = rank_fraction(limits)
    if r != len(limits):
        raise ValueError(
            f"defining forms are dependent at T = 0 (rank {r} of {len(limits)})"
        )
    return limits


def extra_equations(J: NodeIndexSet) -> tuple[RationalForm, RationalForm, RationalForm, RationalForm]:
    """The four additional equations of the |If ∩ J| = k-2 case.

    With J \\ If = {alpha, alpha'} and If \\ J = {t, t'}, these are the four
    sums over j in If ∩ J of the coefficients at positions (j, t) resp.
    (j, t') holding values (r(j), alpha) resp. (r(j), alpha'), returned in
    the order (alpha,t), (alpha',t), (alpha,t'), (alpha',t').
    """
    k, N = J.k, J.N
    if len(J.in_first) != k - 2:
        raise ValueError(f"|If ∩ J| = {len(J.in_first)}, need exactly k-2 = {k - 2}")
    pairing = replacement_pairing(J)
    t1, t2 = (p for p in range(1, k + 1) if p not in set(J.in_first))
    alphas = sorted(v for v in J.J if v > k)
    a1, a2 = alphas
    out = []
    for t, alpha in ((t1, a1), (t1, a2), (t2, a1), (t2, a2)):
        form: RationalForm = {}
        for j in J.in_first:
            values = list(first_index(k, N))
            values[j - 1] = pairing[j]
            values[t - 1] = alpha
            I, s = sort_with_sign(values, N)
            form[I] = form.get(I, Fraction(0)) + s
            if not form[I]:
                del form[I]
        out.append(form)
    return tuple(out)  # type: ignore[return-value]


def forms_span_equal(forms_a: list[RationalForm], forms_b: list[RationalForm], k: int, N: int) -> bool:
    """Exact row-reduction comparison of two spans of coefficient forms on
    the C(N, k) multiindices, each form a sparse row.  A full GF(p) rank
    certifies only a rank (``hessian.rank_exact``), so each family is
    echeloned exactly over Q, once, and b's basis reduced against a's."""
    return span_equal(forms_a, forms_b)


# ---------------------------------------------------------------------------
# Node pair verification, k = 3


class NodeConditionError(ValueError):
    """A structural node condition failed; the message says which and where."""


def _sign_of_match(lhs: list, rhs: list) -> str | None:
    """The sign relating two vectors: "+1" or "-1" when lhs is rhs or its
    negative and nonzero, "zero" when both vanish, ``None`` otherwise."""
    if lhs == rhs:
        return "+1" if any(lhs) else "zero"
    return "-1" if lhs == [-x for x in rhs] else None


def _free_node_indices(k: int, N: int) -> list[MultiIndex]:
    """Indices invisible to H(x0) but present in H(x'): no element in If,
    exactly one element in Il."""
    If = set(first_index(k, N))
    Il = set(last_index(k, N))
    middle = [v for v in range(1, N + 1) if v not in If and v not in Il]
    out = []
    for ell in sorted(Il):
        for pair in itertools.combinations(middle, k - 1):
            out.append(tuple(sorted(pair + (ell,))))
    return out


def verify_node_pair_k3(A: ExteriorArray, completion_seed: int = 0) -> dict:
    """Check the structural node-pair conditions for k = 3 and produce a
    completed second Hessian with both determinants nonzero.

    Structural failures raise :class:`NodeConditionError` naming the
    condition and location.  Condition (i) is checked once, in coefficient
    form, by :func:`generic_node_membership`.  That covers its matrix forms:
    each cell of the last 3x3 of an A block holds a coefficient with two
    indices in Il, each cell of the first 3x3 of a B block one with two in
    If, so both lie in a star that must vanish, and the completion fills
    only indices with no entry in If.  Conditions (ii)-(iv) compare a B row
    with an A column up to one sign.  Condition (iv) is checked in two
    readings (the derived block A12 and the literally printed block A23);
    only the derived reading is required to hold, both outcomes are reported.
    """
    k, N = A.k, A.N
    if k != 3 or N < 9:
        raise ValueError(f"node pair verification needs k=3, N>=9, got ({k},{N})")
    if not generic_node_membership(A):
        raise NodeConditionError("condition (i): a coefficient meeting an end block in >= k-1 entries is nonzero")

    H0 = assemble(A)
    pairs = ((1, 2), (1, 3), (2, 3))
    Ablocks = {(i, j): H0.block(i, j) for i, j in pairs}

    free = _free_node_indices(k, N)
    report: dict = {
        "k": k,
        "N": N,
        "column_reading": "within-block column N-3/N-4/N-5, B row shifted by 3",
        "free_coefficients": len(free),
    }

    det_H0 = det_exact(H0)
    report["det_H0"] = int(det_H0)

    # the structural checks below do not read the fill: if every seed fails, the last serves
    for seed in range(completion_seed, completion_seed + 8):
        rng = random.Random(seed)
        filled = dict(A.coeffs)
        for I in free:
            v = rng.randint(-2, 2)
            if v:
                filled[I] = v
        H1 = assemble_dual(ExteriorArray(k, N, filled))
        det_H1 = det_exact(H1)
        if det_H1 != 0:
            break
    else:
        seed = None
    report["completion_seed"] = seed
    report["det_H1"] = int(det_H1)
    report["condition_i"] = "holds"

    def signs(row: int, ablock: tuple[int, int], label: str | None) -> dict[str, str | None]:
        """Row ``row`` of each B_ij from column 4 on, against the top N-6
        rows of the A column of the Il element missing from {i, j}."""
        out = {}
        for i, j in pairs:
            col = N - i - j  # within-block column N-3+missing-3, missing = 6-i-j
            sign = _sign_of_match(H1.block(i, j)[row - 1][3:], [r[col - 1] for r in Ablocks[ablock][: N - 6]])
            if sign is None and label is not None:
                raise NodeConditionError(
                    f"{label}: B{i}{j} row {row} vs A{ablock[0]}{ablock[1]} column {col} mismatch"
                )
            out[f"B{i}{j}"] = sign
        return out

    for label, row, ablock in (("condition_ii", 1, (2, 3)), ("condition_iii", 2, (1, 3))):
        report[label] = {"block": f"A{ablock[0]}{ablock[1]}", "signs": signs(row, ablock, label)}
    report["condition_iv"] = {
        "derived": {"block": "A12", "signs": signs(3, (1, 2), "condition (iv) [derived A12]")},
        "literal_A23_holds": None not in signs(3, (2, 3), None).values(),
    }

    report["pass"] = det_H0 != 0 and det_H1 != 0
    return report
