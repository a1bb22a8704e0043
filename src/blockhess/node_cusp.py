"""Cusp/node membership tests, the x(J, T) family, and T -> 0 limit forms.

The cusp locus is cut out by criticality plus a vanishing Hessian
determinant.  The node loci come in two flavours: the generic one (second
tangency point at the opposite coordinate point, no shared basis vectors)
and the special ones, indexed by a multiindex J meeting both end blocks.
For the special ones the second tangency point is pushed along the curve
x(J, T); this module computes the defining linear forms of the tangency
conditions at x(J, T) exactly, with T carried as a formal Laurent variable,
normalizes them, and takes the T = 0 limit.

Conventions:

* A "linear form" on the coefficient space is a dict mapping a sorted
  multiindex I to the (Laurent or rational) coefficient of a_I.
* A Laurent scalar is a dict mapping an integer T-exponent to a nonzero
  Fraction.  The empty dict is zero.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .exterior import ChartPoint, ExteriorArray, is_critical
from .hessian import HessianMatrix, assemble, det_exact
from .linalg import rank_fraction
from .multiindex import (
    MultiIndex,
    NodeIndexSet,
    enumerate_indices,
    first_index,
    last_index,
    replacement_pairing,
    sort_with_sign,
)
from .ring import Scalar

Laurent = dict[int, Fraction]
LinearForm = dict[MultiIndex, Laurent]
RationalForm = dict[MultiIndex, Fraction]


# ---------------------------------------------------------------------------
# Laurent scalar helpers


def _lau(c: Scalar, exp: int = 0) -> Laurent:
    c = Fraction(c)
    return {exp: c} if c else {}


def _lau_add(a: Laurent, b: Laurent) -> Laurent:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, Fraction(0)) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _lau_mul(a: Laurent, b: Laurent) -> Laurent:
    out: Laurent = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            s = out.get(e, Fraction(0)) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _lau_shift(a: Laurent, by: int) -> Laurent:
    return {e + by: c for e, c in a.items()}


def _lau_at_zero(a: Laurent) -> Fraction:
    return a.get(0, Fraction(0))


def laurent_eval(a: Laurent, t: Scalar) -> Fraction:
    """Evaluate a Laurent scalar at a nonzero rational T value."""
    t = Fraction(t)
    if not t:
        raise ZeroDivisionError("Laurent evaluation at T = 0")
    return sum((c * t**e for e, c in a.items()), Fraction(0))


def render_laurent(a: Laurent) -> str:
    """Human-readable rendering, e.g. ``T``, ``-T^-1``, ``1 + 2*T^2``."""
    if not a:
        return "0"
    parts = []
    for e in sorted(a):
        c = a[e]
        if e == 0:
            parts.append(str(c))
        else:
            tpow = "T" if e == 1 else f"T^{e}"
            if c == 1:
                parts.append(tpow)
            elif c == -1:
                parts.append(f"-{tpow}")
            else:
                parts.append(f"{c}*{tpow}")
    return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# Membership predicates


def cusp_membership(A: ExteriorArray) -> bool:
    """True iff the form is critical at the base coordinate point and the
    Hessian determinant there vanishes."""
    origin = ChartPoint.zero(A.k, A.N)
    if not is_critical(A, origin):
        return False
    return det_exact(assemble(A)) == 0


def generic_node_membership(A: ExteriorArray) -> bool:
    """True iff a_I = 0 whenever I meets the first or the last block in at
    least k-1 elements.

    This is the coefficient form of double tangency at the two opposite
    coordinate points, and coincides with
    ``nabla_membership(A, If) and nabla_membership(A, Il)``.
    """
    k, N = A.k, A.N
    If = set(first_index(k, N))
    Il = set(last_index(k, N))
    for I, c in A.items():
        if c == 0:
            continue
        s = set(I)
        if len(s & If) >= k - 1 or len(s & Il) >= k - 1:
            return False
    return True


# ---------------------------------------------------------------------------
# The x(J, T) family


class NodePointSpec:
    """A choice of second-tangency pattern J together with a parameter T.

    ``T=None`` means symbolic: downstream computations carry T as a formal
    Laurent variable.  Numeric T must be nonzero.
    """

    __slots__ = ("J", "T")

    def __init__(self, J: NodeIndexSet, T: Scalar | None = None):
        if T is not None and Fraction(T) == 0:
            raise ValueError("T = 0 is not a point of the family; use the T -> 0 limit forms")
        self.J = J
        self.T = T


def _pair_rows(spec: NodePointSpec) -> list[list[tuple[int, Laurent]]]:
    """Row-sparse frame of x(J, T): row p holds 1 in column p and T^{+-1}
    in column pairing(p).  Columns are 1-based."""
    node = spec.J
    k = node.k
    pairing = replacement_pairing(node)
    in_first = set(node.in_first)
    rows = []
    for p in range(1, k + 1):
        exp = 1 if p in in_first else -1
        rows.append([(p, _lau(1)), (pairing[p], _lau(1, exp))])
    return rows


def build_x_J_T(spec: NodePointSpec) -> tuple[tuple[object, ...], ...]:
    """The k x N coordinate matrix of x(J, T).

    Identity in the first k columns, T at (r, pairing(r)) for r in If∩J,
    T^-1 at (r, pairing(r)) for r in If\\J.  Entries are Fractions for
    numeric T and Laurent dicts for symbolic T.
    """
    node = spec.J
    k, N = node.k, node.N
    dense: list[list[object]] = [[Fraction(0)] * N for _ in range(k)]
    for p0, entries in enumerate(_pair_rows(spec)):
        for col, lau in entries:
            if spec.T is None:
                dense[p0][col - 1] = dict(lau)
            else:
                dense[p0][col - 1] = laurent_eval(lau, spec.T)
    if spec.T is None:
        for p0 in range(k):
            for c0 in range(N):
                if dense[p0][c0] == Fraction(0):
                    dense[p0][c0] = {}
    return tuple(tuple(row) for row in dense)


def chart_point_at(spec: NodePointSpec) -> ChartPoint:
    """The same point as a chart point (numeric T only)."""
    if spec.T is None:
        raise ValueError("chart point requires numeric T")
    rows = build_x_J_T(spec)
    k, N = spec.J.k, spec.J.N
    return ChartPoint.from_rows(k, N, [row[k:] for row in rows])


# ---------------------------------------------------------------------------
# Defining forms at x(J, T) and their T -> 0 limits


def _sparse_minor(rows: list[list[tuple[int, Laurent]]], cols: tuple[int, ...]) -> Laurent:
    """Determinant of the submatrix on ``cols``, for rows given sparsely as
    (column, Laurent) pairs.  Expansion along the first row; the recursion
    depth is the number of rows and each row holds at most two entries."""
    if not rows:
        return _lau(1)
    total: Laurent = {}
    colpos = {c: i for i, c in enumerate(cols)}
    for c, val in rows[0]:
        i = colpos.get(c)
        if i is None:
            continue
        rest = cols[:i] + cols[i + 1 :]
        sub = _sparse_minor(rows[1:], rest)
        if not sub:
            continue
        term = _lau_mul(val, sub)
        if i % 2:
            term = {e: -v for e, v in term.items()}
        total = _lau_add(total, term)
    return total


def _form_for_rows(rows: list[list[tuple[int, Laurent]]], k: int, N: int) -> LinearForm:
    form: LinearForm = {}
    for I in enumerate_indices(k, N):
        m = _sparse_minor(rows, I)
        if m:
            form[I] = m
    return form


def _normalized(form: LinearForm) -> tuple[LinearForm, int]:
    """Multiply by the minimal T power making every exponent >= 0 with at
    least one exponent equal to 0.  Returns (form, power used)."""
    if not form:
        raise ValueError("cannot normalize an identically zero form")
    low = min(min(lau) for lau in form.values())
    if low == 0:
        return form, 0
    return {I: _lau_shift(lau, -low) for I, lau in form.items()}, -low


def _constant_part(form: LinearForm) -> LinearForm:
    out: LinearForm = {}
    for I, lau in form.items():
        c = _lau_at_zero(lau)
        if c:
            out[I] = {0: c}
    return out


def _form_sub(a: LinearForm, b: LinearForm) -> LinearForm:
    out = {I: dict(lau) for I, lau in a.items()}
    for I, lau in b.items():
        neg = {e: -c for e, c in lau.items()}
        merged = _lau_add(out.get(I, {}), neg)
        if merged:
            out[I] = merged
        else:
            out.pop(I, None)
    return out


class DefiningForms:
    """The full linear system cutting out double tangency along x(J, T).

    ``base`` lists the T-independent coordinate forms of tangency at the
    first coordinate point (the star of If); ``moving`` lists the form of F
    itself at x(J, T) followed by the selected partial derivatives, each
    normalized so that T = 0 is a regular value.  ``moving_labels`` names
    the forms; ``replaced`` flags the four forms that went through the
    subtract-and-divide step of the |If∩J| = k-2 case.
    """

    __slots__ = ("spec", "base", "moving", "moving_labels", "replaced")

    def __init__(
        self,
        spec: NodePointSpec,
        base: tuple[LinearForm, ...],
        moving: tuple[LinearForm, ...],
        moving_labels: tuple[str, ...],
        replaced: tuple[bool, ...] = (),
    ):
        for f in moving:
            low = min(min(lau) for lau in f.values())
            if low < 0:
                raise AssertionError("negative T power survived normalization")
        self.spec = spec
        self.base = base
        self.moving = moving
        self.moving_labels = moving_labels
        self.replaced = replaced

    @property
    def forms(self) -> tuple[LinearForm, ...]:
        return self.base + self.moving


def _base_forms(k: int, N: int) -> tuple[tuple[LinearForm, ...], tuple[str, ...]]:
    If = first_index(k, N)
    forms: list[LinearForm] = [{If: _lau(1)}]
    labels = ["a[If]"]
    for p in range(1, k + 1):
        for t in range(k + 1, N + 1):
            values = list(If)
            values[p - 1] = t
            I, s = sort_with_sign(values, N)
            forms.append({I: _lau(s)})
            labels.append(f"a[If; {p}->{t}]")
    return tuple(forms), tuple(labels)


def _moving_selection(node: NodeIndexSet) -> list[tuple[int, int, str]]:
    """The k(N-k) partial-derivative slots: chart columns except the T^-1
    positions, plus the frame diagonal at each row of If \\ J."""
    k, N = node.k, node.N
    pairing = replacement_pairing(node)
    f_out = [p for p in range(1, k + 1) if p not in set(node.in_first)]
    slots: list[tuple[int, int, str]] = []
    for p in range(1, k + 1):
        for t in range(k + 1, N + 1):
            if p in f_out and pairing[p] == t:
                continue
            slots.append((p, t, f"d[{p},{t}]"))
    for p in f_out:
        slots.append((p, p, f"d[{p},{p}]"))
    return slots


def defining_forms_at(spec: NodePointSpec) -> DefiningForms:
    """F and its selected partials at x(J, T), T-normalized.

    Requires |If ∩ J| <= k-2.  In the k-2 case the four forms whose T = 0
    value would duplicate coordinates already present in the base system
    (the two cross partials at (t, alpha') and (t', alpha) and the two
    diagonal partials at (t, t) and (t', t')) are replaced by
    (form - constant part) / T, which is exactly the subtract-and-divide
    step producing the four additional equations.
    """
    node = spec.J
    k, N = node.k, node.N
    meet = len(node.in_first)
    if meet > k - 2:
        raise ValueError(
            f"|If ∩ J| = {meet} exceeds k-2 = {k - 2}; the tangency family degenerates"
        )
    rows = _pair_rows(spec)
    base, _ = _base_forms(k, N)

    moving: list[LinearForm] = []
    labels: list[str] = []
    form_F, _ = _normalized(_form_for_rows(rows, k, N))
    moving.append(form_F)
    labels.append("F")
    for p, t, label in _moving_selection(node):
        replaced_rows = list(rows)
        replaced_rows[p - 1] = [(t, _lau(1))]
        form, _ = _normalized(_form_for_rows(replaced_rows, k, N))
        moving.append(form)
        labels.append(label)

    replaced = [False] * len(moving)
    if meet == k - 2:
        pairing = replacement_pairing(node)
        t1, t2 = (p for p in range(1, k + 1) if p not in set(node.in_first))
        a1, a2 = pairing[t1], pairing[t2]
        special = {
            f"d[{t1},{a2}]",
            f"d[{t2},{a1}]",
            f"d[{t1},{t1}]",
            f"d[{t2},{t2}]",
        }
        for idx, label in enumerate(labels):
            if label not in special:
                continue
            form = moving[idx]
            stripped = _form_sub(form, _constant_part(form))
            if not stripped:
                raise AssertionError(f"special form {label} vanished after stripping")
            moving[idx] = {I: _lau_shift(lau, -1) for I, lau in stripped.items()}
            replaced[idx] = True

    return DefiningForms(
        spec=spec,
        base=base,
        moving=tuple(moving),
        moving_labels=tuple(labels),
        replaced=tuple(replaced),
    )


def limit_T0(forms: DefiningForms) -> list[RationalForm]:
    """Evaluate every form at T = 0 and check linear independence.

    Dependence signals a wrong normalization (or an inadmissible J) and is
    raised, never swallowed.
    """
    node = forms.spec.J
    k, N = node.k, node.N
    limits: list[RationalForm] = []
    for f in forms.forms:
        lim = {I: _lau_at_zero(lau) for I, lau in f.items() if _lau_at_zero(lau)}
        limits.append(lim)
    index_order = {I: i for i, I in enumerate(enumerate_indices(k, N))}
    matrix = []
    for lim in limits:
        row = [0] * len(index_order)
        for I, c in lim.items():
            row[index_order[I]] = c
        matrix.append(row)
    r = rank_fraction(matrix)
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


def star_coordinate_forms(J: MultiIndex, N: int) -> list[RationalForm]:
    """Coordinate forms a_I for I in star(J), in enumeration order."""
    from .multiindex import star

    members = sorted(star(J, N))
    return [{I: Fraction(1)} for I in members]


def forms_span_equal(forms_a: list[RationalForm], forms_b: list[RationalForm], k: int, N: int) -> bool:
    """Exact row-reduction comparison of two spans of coefficient forms."""
    from .linalg import span_equal

    index_order = {I: i for i, I in enumerate(enumerate_indices(k, N))}

    def as_rows(forms: list[RationalForm]) -> list[list[Scalar]]:
        rows = []
        for f in forms:
            row = [0] * len(index_order)
            for I, c in f.items():
                row[index_order[I]] = c
            rows.append(row)
        return rows

    return span_equal(as_rows(forms_a), as_rows(forms_b))


def form_eval_at_T(form: LinearForm, t: Scalar) -> RationalForm:
    """Substitute a nonzero numeric T into a Laurent-coefficient form."""
    out: RationalForm = {}
    for I, lau in form.items():
        v = laurent_eval(lau, t)
        if v:
            out[I] = v
    return out


def form_apply(form: RationalForm, A: ExteriorArray) -> Fraction:
    """Evaluate a rational linear form on a coefficient array."""
    return sum((c * Fraction(A.get(I)) for I, c in form.items()), Fraction(0))


# ---------------------------------------------------------------------------
# Node pair verification, k = 3


class NodeConditionError(ValueError):
    """A structural node condition failed; the message says which and where."""


def _signed_match(
    lhs: list[Fraction], rhs: list[Fraction]
) -> tuple[bool, str]:
    """Do two vectors agree up to one global sign?  Returns (ok, sign) with
    sign in {"+1", "-1", "zero"}."""
    if len(lhs) != len(rhs):
        return False, "length"
    sign = 0
    for a, b in zip(lhs, rhs):
        if (a == 0) != (b == 0):
            return False, "support"
        if a == 0:
            continue
        s = 1 if a == b else (-1 if a == -b else 0)
        if s == 0:
            return False, "ratio"
        if sign == 0:
            sign = s
        elif sign != s:
            return False, "mixed"
    return True, {0: "zero", 1: "+1", -1: "-1"}[sign]


def _row_column_check(
    H1: HessianMatrix,
    Ablocks: dict[tuple[int, int], list[list[Fraction]]],
    bpair: tuple[int, int],
    row: int,
    ablock: tuple[int, int],
    N: int,
) -> tuple[bool, str, str]:
    """Compare row ``row`` of B_{bpair} against the within-block column of
    A_{ablock} determined by the missing last-block element, shifted by 3.

    Returns (ok, sign, detail-on-failure).
    """
    i, j = bpair
    missing = ({1, 2, 3} - {i, j}).pop()  # dual position not in the pair
    ell = N - 3 + missing  # the corresponding basis vector in Il
    col = ell - 3  # within-block column index of the A block
    B = H1.block(i, j)
    A = Ablocks[ablock]
    m = N - 3
    lhs = [B[row - 1][v - 1] for v in range(4, m + 1)]
    rhs = [A[w - 1][col - 1] for w in range(1, m - 3 + 1)]
    head = [B[row - 1][v - 1] for v in range(1, 4)]
    tail = [A[w - 1][col - 1] for w in range(m - 2, m + 1)]
    if any(head):
        return False, "", f"B{i}{j} row {row} columns 1..3 not zero"
    if any(tail):
        return False, "", f"A{ablock[0]}{ablock[1]} column {col} rows {m-2}..{m} not zero"
    ok, sign = _signed_match(lhs, rhs)
    if not ok:
        return False, "", (
            f"B{i}{j} row {row} vs A{ablock[0]}{ablock[1]} column {col} mismatch ({sign})"
        )
    return True, sign, ""


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
    condition and location.  Condition (iv) is checked in two readings
    (the derived block A12 and the literally printed block A23); only the
    derived reading is required to hold, both outcomes are reported.
    """
    import random

    from .hessian import assemble_dual

    k, N = A.k, A.N
    if k != 3 or N < 9:
        raise ValueError(f"node pair verification needs k=3, N>=9, got ({k},{N})")
    if not generic_node_membership(A):
        raise NodeConditionError("condition (i): a coefficient meeting an end block in >= k-1 entries is nonzero")

    H0 = assemble(A)
    m = N - 3
    Ablocks = {(i, j): H0.block(i, j) for i, j in ((1, 2), (1, 3), (2, 3))}

    # Condition (i), matrix form: last 3x3 of each A block zero.
    for (i, j), blk in Ablocks.items():
        for u in range(m - 3, m):
            for v in range(m - 3, m):
                if blk[u][v] != 0:
                    raise NodeConditionError(
                        f"condition (i): A{i}{j}[{u + 1}][{v + 1}] = {blk[u][v]} in the last 3x3 block"
                    )

    free = _free_node_indices(k, N)
    report: dict = {
        "k": k,
        "N": N,
        "column_reading": "within-block column N-3/N-4/N-5, B row shifted by 3",
        "free_coefficients": len(free),
    }

    det_H0 = det_exact(H0)
    report["det_H0"] = int(det_H0)

    seed_used = None
    det_H1 = Fraction(0)
    H1 = None
    for attempt in range(8):
        seed = completion_seed + attempt
        rng = random.Random(seed)
        filled = dict(A.coeffs)
        for I in free:
            v = rng.randint(-2, 2)
            if v:
                filled[I] = v
        completed = ExteriorArray(k, N, filled)
        H1_try = assemble_dual(completed)
        det_try = det_exact(H1_try)
        if H1 is None:
            H1 = H1_try  # structural checks do not depend on the fill
        if det_try != 0:
            seed_used, det_H1, H1 = seed, det_try, H1_try
            break
    report["completion_seed"] = seed_used
    report["det_H1"] = int(det_H1)
    assert H1 is not None

    # Condition (i), dual side: first 3x3 of each B block zero.
    for i, j in ((1, 2), (1, 3), (2, 3)):
        B = H1.block(i, j)
        for u in range(3):
            for v in range(3):
                if B[u][v] != 0:
                    raise NodeConditionError(
                        f"condition (i): B{i}{j}[{u + 1}][{v + 1}] = {B[u][v]} in the first 3x3 block"
                    )
    report["condition_i"] = "holds"

    # Conditions (ii)-(iv): B rows against A columns.
    for label, row, ablock in (("condition_ii", 1, (2, 3)), ("condition_iii", 2, (1, 3))):
        checks = {}
        for bpair in ((1, 2), (1, 3), (2, 3)):
            ok, sign, detail = _row_column_check(H1, Ablocks, bpair, row, ablock, N)
            if not ok:
                raise NodeConditionError(f"{label}: {detail}")
            checks[f"B{bpair[0]}{bpair[1]}"] = sign
        report[label] = {"block": f"A{ablock[0]}{ablock[1]}", "signs": checks}

    derived = {}
    for bpair in ((1, 2), (1, 3), (2, 3)):
        ok, sign, detail = _row_column_check(H1, Ablocks, bpair, 3, (1, 2), N)
        if not ok:
            raise NodeConditionError(f"condition (iv) [derived A12]: {detail}")
        derived[f"B{bpair[0]}{bpair[1]}"] = sign
    literal_holds = all(
        _row_column_check(H1, Ablocks, bpair, 3, (2, 3), N)[0]
        for bpair in ((1, 2), (1, 3), (2, 3))
    )
    report["condition_iv"] = {
        "derived": {"block": "A12", "signs": derived},
        "literal_A23_holds": literal_holds,
    }

    report["pass"] = det_H0 != 0 and det_H1 != 0
    return report


# ---------------------------------------------------------------------------
# Node tuple relation, k = 4


def _parity_union(parent: dict, parity: dict, a: object, b: object, rel: int) -> bool:
    """Union-find with +-1 edge weights; returns False on contradiction."""

    def find(x: object) -> tuple[object, int]:
        acc = 1
        while parent[x] != x:
            acc *= parity[x]
            x = parent[x]
        return x, acc

    for x in (a, b):
        if x not in parent:
            parent[x] = x
            parity[x] = 1
    ra, pa = find(a)
    rb, pb = find(b)
    if ra == rb:
        return pa * pb == rel
    parent[ra] = rb
    parity[ra] = rel * pa * pb
    return True


def verify_k4_tuple(H0: HessianMatrix, H1: HessianMatrix) -> bool:
    """Check the k = 4 common-entry relation between the two node Hessians.

    Entry (gamma, theta) of H0's block (alpha, beta) must match entry
    (alpha-complement, beta-complement) of H1's block at the complementary
    window positions, up to sign changes realizable by a symmetric
    row/column rescaling of H1.  Only the window of inner indices landing
    in the last block carries constraints (36 shared entries; all of both
    matrices when N = 8).
    """
    if H0.k != 4 or H1.k != 4 or H0.N != H1.N:
        raise ValueError("need two Hessians with k = 4 and equal N")
    N = H0.N
    m = N - 4
    window = [g for g in range(1, m + 1) if 4 + g > N - 4]
    if len(window) != 4:
        raise ValueError(f"window {window} does not have 4 elements; N = {N} too small")
    windex = {g: w for w, g in enumerate(window, start=1)}

    def comp(pair: tuple[int, int]) -> tuple[int, int]:
        return tuple(sorted({1, 2, 3, 4} - set(pair)))  # type: ignore[return-value]

    parent: dict = {}
    parity: dict = {}
    for alpha, beta in itertools.combinations(range(1, 5), 2):
        Hblock = H0.block(alpha, beta)
        for gamma, theta in itertools.combinations(window, 2):
            lhs = Hblock[gamma - 1][theta - 1]
            wg, wt = comp((windex[gamma], windex[theta]))
            ca, cb = comp((alpha, beta))
            Bblock = H1.block(wg, wt)
            rhs = Bblock[ca - 1][cb - 1]
            if (lhs == 0) != (rhs == 0):
                return False
            if lhs == 0:
                continue
            if abs(lhs) != abs(rhs):
                return False
            rel = 1 if lhs == rhs else -1
            r = H1.index_of(wg, 4 + ca)
            c = H1.index_of(wt, 4 + cb)
            if r == c:
                if rel != 1:
                    return False
                continue
            if not _parity_union(parent, parity, r, c, rel):
                return False
    return True
