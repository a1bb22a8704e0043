"""The four workloads as task lists built from a seed.

A task is a timed callable plus an independent check of its result.  Only
``run`` is timed.  Library functions are always looked up through their
module at call time (``hessian.assemble(...)``), so a traced run sees every
call.  Library modules are imported inside the builders, never at import
time, so that a set-up probe can time the import alone.

Why these workloads:

* ``exact-q`` is the certificate path: rank and determinant over Q and Z,
  where ``linalg``'s Fraction elimination dominates and almost no
  polynomial or prime-field work is mixed in.
* ``modp-lines`` restricts det H to random lines over GF(p); it does no
  Fraction elimination, so a Q-kernel change must leave it flat.
* ``symbolic`` drives the same determinant routine on polynomial entries,
  plus the Laurent limit systems, so a change that helps integer entries
  and hurts polynomial ones shows up.
* ``cli`` runs every README command as a child process; it is the only
  workload that includes interpreter start, import and ``blockhess.cli``.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import checks
from .checks import require

WORKLOADS = ("exact-q", "modp-lines", "symbolic", "cli")

# Modules whose import is the workload's set-up cost.
SETUP_MODULES = {
    "exact-q": ("blockhess.certificates", "blockhess.hessian", "blockhess.node_cusp"),
    "modp-lines": ("blockhess.exterior", "blockhess.hessian", "blockhess.ring"),
    "symbolic": ("blockhess.hessian", "blockhess.exterior", "blockhess.ring", "blockhess.node_cusp"),
    "cli": ("blockhess.cli",),
}


@dataclass
class Task:
    id: str
    seeded: bool  # result depends on the seed, not only on the id
    run: Callable[[], object]
    check: Callable[[object], None]
    argv: list[str] | None = None  # cli tasks: the command line after ``blockhess``


def build(workload: str, seed: int, smoke: bool, workdir: Path) -> list[Task]:
    if workload == "exact-q":
        return exact_q(seed, smoke)
    if workload == "modp-lines":
        return modp_lines(seed, smoke)
    if workload == "symbolic":
        return symbolic(seed, smoke)
    if workload == "cli":
        return cli(seed, smoke, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def _rng(seed: int, tid: str) -> random.Random:
    """Each task draws from its own stream, so a task's inputs depend only on
    the seed and its id, not on which other tasks are in the list."""
    return random.Random(f"{seed}/{tid}")


def _random_coeffs(rng: random.Random, k: int, N: int, lo: int, hi: int) -> dict:
    return {I: rng.randint(lo, hi) for I in checks.all_indices(k, N)}


# ---------------------------------------------------------------------------
# exact-q


def _block_rows(k: int, N: int, blocks) -> list[list[int]]:
    """The Hessian of a certificate straight from its stored upper blocks:
    block (p, q) is A_pq for p < q and its transpose for p > q."""
    m = N - k
    rows = [[0] * (k * m) for _ in range(k * m)]
    for p in range(1, k + 1):
        for q in range(p + 1, k + 1):
            blk = blocks[f"A{p}{q}"]
            for u in range(m):
                for v in range(m):
                    rows[(p - 1) * m + u][(q - 1) * m + v] = blk[u][v]
                    rows[(q - 1) * m + v][(p - 1) * m + u] = blk[u][v]
    return rows


def _check_corank1(rows, k: int, N: int, rank: int, block_ranks, what: str) -> None:
    m = N - k
    require(rank == k * m - 1, f"{what}: rank {rank}, expected {k * m - 1}")
    checks.check_rank(rows, rank, what)
    require(list(block_ranks) == [m] * k, f"{what}: block row ranks {block_ranks}")
    for i in range(k):
        checks.check_rank(rows[i * m:(i + 1) * m], m, f"{what} block row {i + 1}")


def _verify_task(cid: str) -> Task:
    from blockhess import certificates

    cert = certificates.load(cid)
    rows = _block_rows(cert.k, cert.N, cert.blocks)

    def check(rep) -> None:
        require(rep["pass"] is True, f"{cid}: verify did not pass")
        require(rep["checksum"] == checks.digest_bytes(_payload(cert)), f"{cid}: checksum")
        if cert.kind == "corank1":
            _check_corank1(rows, cert.k, cert.N, rep["rank"], rep["block_row_ranks"], cid)
        elif cert.kind == "invertible":
            require(rep["det"] != 0, f"{cid}: zero det")
            checks.check_det(rows, rep["det"], cid)
        else:
            node = rep["node"]
            require(node["det_H0"] != 0 and node["det_H1"] != 0, f"{cid}: zero det")
            require(node["completion_seed"] < 8, f"{cid}: completion seed")
            checks.check_det(rows, node["det_H0"], cid)

    return Task(f"verify/{cid}", False, lambda: certificates.verify(cid), check)


def _payload(cert) -> bytes:
    body = {"k": cert.k, "N": cert.N, "blocks": {n: [list(r) for r in rows] for n, rows in cert.blocks.items()}}
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode("ascii")


def _build_task(k: int, N: int, seed: int) -> Task:
    from blockhess import certificates

    def check(cert) -> None:
        rows = _block_rows(k, N, cert.blocks)
        ranks = [checks.rank_mod(rows[i * (N - k):(i + 1) * (N - k)], checks.PRIMES[0]) for i in range(k)]
        _check_corank1(rows, k, N, max(checks.rank_mod(rows, p) for p in checks.PRIMES), ranks, f"build {k},{N}")

    return Task(f"build/{k}-{N}", True, lambda: certificates.build_corank1(k, N, seed), check)


def _rank_det_tasks(seed: int, k: int, N: int) -> list[Task]:
    from blockhess import exterior, hessian

    coeffs = _random_coeffs(_rng(seed, f"rank-det/{k}-{N}"), k, N, -4, 4)
    M = hessian.assemble(exterior.ExteriorArray(k, N, coeffs))
    own = checks.hessian_rows(k, N, coeffs)
    return [
        Task(f"rank/{k}-{N}", True, lambda: hessian.rank_exact(M),
             lambda r: checks.check_rank(own, r, f"rank {k},{N}")),
        Task(f"det/{k}-{N}", True, lambda: hessian.det_exact(M),
             lambda d: checks.check_det(own, d, f"det {k},{N}")),
    ]


def _specialize_task(seed: int, k: int, a: int, b: int, i: int) -> Task:
    from blockhess import exterior, hessian

    rng = _rng(seed, f"specialize/{k}-{a}-{b}/{i}")
    c1, c2 = _random_coeffs(rng, k, a, -4, 4), _random_coeffs(rng, k, b, -4, 4)
    H1 = hessian.assemble(exterior.ExteriorArray(k, a, c1))
    H2 = hessian.assemble(exterior.ExteriorArray(k, b, c2))

    def run():
        E = hessian.specialize_embed(H1, H2)
        return [hessian.det_exact(E), hessian.det_exact(H1), hessian.det_exact(H2)]

    def check(r) -> None:
        require(r[0] == r[1] * r[2], f"spec {k},{a},{b}: det(E) != det * det")
        checks.check_det(checks.hessian_rows(k, a, c1), r[1], "spec first")
        checks.check_det(checks.hessian_rows(k, b, c2), r[2], "spec second")

    return Task(f"specialize/{k}-{a}-{b}/{i}", True, run, check)


def _star(J, N: int) -> set:
    out = {tuple(J)}
    for j in J:
        for m in range(1, N + 1):
            if m not in J:
                out.add(tuple(sorted((set(J) - {j}) | {m})))
    return out


def _admissible(k: int, N: int, meet: int) -> list[tuple[int, ...]]:
    first, last = range(1, k + 1), range(N - k + 1, N + 1)
    return [
        tuple(sorted(f + l))
        for f in itertools.combinations(first, meet)
        for l in itertools.combinations(last, k - meet)
    ]


def _extra_equations(k: int, N: int, J: tuple[int, ...]) -> list[dict]:
    """The four extra equations of the |If ∩ J| = k-2 case, from their
    definition: with If \\ J = {t, t'} and J \\ If = {alpha, alpha'}, the sum
    over j in If ∩ J of the coefficient at positions (j, t) holding
    (r(j), alpha), where r pairs If ∩ J with Il \\ J and If \\ J with Il ∩ J,
    each in order."""
    first, last = range(1, k + 1), range(N - k + 1, N + 1)
    pairing = dict(zip([v for v in first if v in J], [v for v in last if v not in J]))
    pairing.update(zip([v for v in first if v not in J], [v for v in last if v in J]))
    out = []
    for t in (v for v in first if v not in J):
        for alpha in sorted(v for v in J if v > k):
            form: dict = {}
            for j in (v for v in first if v in J):
                raw = list(first)
                raw[j - 1], raw[t - 1] = pairing[j], alpha
                I, sign = checks.sorted_with_sign(raw)
                form[I] = form.get(I, Fraction(0)) + sign
                if not form[I]:
                    del form[I]
            out.append(form)
    return out


def _limits_task(k: int, N: int, J: tuple[int, ...]) -> Task:
    """Criterion 10: the T -> 0 limits of the defining forms at x(J, T) span
    the two-star coordinate span (plus four extra equations when
    |If ∩ J| = k-2)."""
    from blockhess import multiindex, node_cusp

    first = tuple(range(1, k + 1))
    target = [{I: Fraction(1)} for I in sorted(_star(first, N) | _star(J, N))]
    if len(set(first) & set(J)) == k - 2:
        target += _extra_equations(k, N, J)

    def run():
        forms = node_cusp.defining_forms_at(node_cusp.NodePointSpec(multiindex.NodeIndexSet(k, N, J), None))
        lims = node_cusp.limit_T0(forms)
        return {"limits": lims, "span_equal": node_cusp.forms_span_equal(lims, target, k, N)}

    def check(r) -> None:
        lims = r["limits"]
        require(r["span_equal"] is True, f"limits {k},{N},{J}: spans differ")
        require(len(lims) == 2 * (k * (N - k) + 1), f"limits {k},{N},{J}: {len(lims)} forms")
        order = {I: i for i, I in enumerate(checks.all_indices(k, N))}
        for p in checks.PRIMES:
            ranks = [checks.span_rank_mod(f, order, p) for f in (lims, target, lims + target)]
            require(ranks == [len(lims)] * 3, f"limits {k},{N},{J}: mod-p ranks {ranks}")

    return Task(f"limits/{k}-{N}/{''.join(map(str, J))}", False, run, check)


def exact_q(seed: int, smoke: bool) -> list[Task]:
    from blockhess import certificates

    rng = random.Random(f"exact-q/{seed}")
    ids = certificates.CERTIFICATE_IDS
    tasks = [_verify_task(cid) for cid in (ids[:1] + ids[6:8] if smoke else ids)]
    builds = ((3, 12), (4, 10)) if smoke else (
        (3, 12), (3, 14), (4, 10), (4, 12), (5, 11), (5, 13), (6, 12), (6, 14), (7, 16))
    tasks += [_build_task(k, N, _rng(seed, f"build/{k}-{N}").randrange(1 << 16)) for k, N in builds]
    for k, N in ((3, 12),) if smoke else ((3, 12), (4, 12), (5, 13)):
        tasks += _rank_det_tasks(seed, k, N)
    for k, a, b in ((3, 6, 6), (4, 6, 8)):
        tasks += [_specialize_task(seed, k, a, b, i) for i in range(1 if smoke else 4)]
    # Criterion 10 on a seeded sample of J per shape; the (4,8) sample is the
    # largest group so that the median task sits among near-equal tasks.
    low48 = _admissible(4, 8, 0) + _admissible(4, 8, 1)
    low49 = _admissible(4, 9, 0) + _admissible(4, 9, 1)
    # The smoke pass keeps a prefix of each sample, so its tasks are full-size ones.
    Js = [(3, 7, J) for J in _admissible(3, 7, 0)]
    Js += [(4, 8, J) for J in rng.sample(low48, 12)[:1 if smoke else 12]]
    Js += [(4, 8, J) for J in rng.sample(_admissible(4, 8, 2), 2)[:1 if smoke else 2]]
    Js += [(4, 9, J) for J in rng.sample(low49, 3)[:0 if smoke else 3]]
    tasks += [_limits_task(k, N, J) for k, N, J in Js]
    return tasks


# ---------------------------------------------------------------------------
# modp-lines


def _zeroed(I) -> bool:
    """Indices feeding the A34 block of (4,8): they meet {1,2,3,4} in {3,4}."""
    return set(I) & {1, 2, 3, 4} == {3, 4}


def _line_task(seed: int, k: int, N: int, r: int, zero: bool, i: int) -> Task:
    from blockhess import exterior, hessian, ring

    label = f"{k}-{N}" + ("z" if zero else "")
    rng = _rng(seed, f"line/{label}/{i}")
    p = rng.choice(ring.WORD_PRIMES)
    support = [I for I in checks.all_indices(k, N) if not (zero and _zeroed(I))]
    base = {I: rng.randrange(p) for I in support}
    direction = {I: rng.randrange(p) for I in support}
    side = k * (N - k)

    def run():
        xs = list(range(side + 1))
        ys = []
        for s in xs:
            A = exterior.ExteriorArray(k, N, {I: (base[I] + s * direction[I]) % p for I in support})
            ys.append(hessian.det_mod(hessian.assemble(A), p))
        coeffs = ring.lagrange_interpolate_mod(xs, ys, p)
        return {"coeffs": coeffs, "root": ring.uni_root_structure_mod(coeffs, r, p)}

    def check(res) -> None:
        coeffs, root = res["coeffs"], res["root"]
        what = f"line {k},{N}"
        require(len(coeffs) <= side + 1, f"{what}: degree above {side}")
        s = side + 1
        extra = checks.hessian_rows(k, N, {I: (base[I] + s * direction[I]) % p for I in support})
        require(checks.poly_eval_mod(coeffs, s, p) == checks.det_mod(extra, p), f"{what}: interpolant off the line")
        if root is not None and coeffs:
            power = [c * coeffs[-1] % p for c in checks.poly_pow_mod(root, r, p)]
            require(power == [c % p for c in coeffs], f"{what}: root is not an r-th root")
        if (k, N) in ((3, 6), (3, 7)) or zero:  # known cube / squares
            require(root is not None or not coeffs, f"{what}: not an r-th power")

    return Task(f"line/{label}/{i}", True, run, check)


# (k, N, r, zeroed block, lines per pass, lines in the smoke pass)
LINE_SHAPES = (
    (3, 6, 3, False, 12, 1),
    (3, 7, 2, False, 12, 1),
    (4, 8, 2, True, 12, 1),
    (3, 9, 2, False, 8, 1),
    (5, 10, 2, False, 10, 1),
    (7, 14, 2, False, 1, 0),
)


def modp_lines(seed: int, smoke: bool) -> list[Task]:
    return [
        _line_task(seed, k, N, r, zero, i)
        for k, N, r, zero, full, small in LINE_SHAPES
        for i in range(small if smoke else full)
    ]


# ---------------------------------------------------------------------------
# symbolic


def _poly_eval_mod(f, point, p: int) -> int:
    if not hasattr(f, "terms"):
        return checks.to_mod(f, p)
    acc = 0
    for exp, c in f.terms.items():
        v = checks.to_mod(c, p)
        for x, e in zip(point, exp):
            if e:
                v = v * pow(x, e, p) % p
        acc = (acc + v) % p
    return acc


def _check_symbolic_det(k: int, N: int, D, rng: random.Random, what: str) -> None:
    """det H at random points mod p against elimination of the numeric Hessian."""
    from blockhess import hessian

    A = hessian.symbolic_coefficient_array(k, N)
    nvars = next(iter(A.coeffs.values())).nvars
    for p in checks.PRIMES:
        point = [rng.randrange(p) for _ in range(nvars)]
        coeffs = {I: _poly_eval_mod(c, point, p) for I, c in A.coeffs.items()}
        require(_poly_eval_mod(D, point, p) == checks.det_mod(checks.hessian_rows(k, N, coeffs), p),
                f"{what}: det disagrees at a random point mod {p}")


def _identity_task(seed: int) -> Task:
    from blockhess import hessian, linalg

    A = hessian.symbolic_coefficient_array(3, 6)
    m_rows = (((3, 4, 5), (3, 4, 6), (3, 5, 6)), ((2, 4, 5), (2, 4, 6), (2, 5, 6)), ((1, 4, 5), (1, 4, 6), (1, 5, 6)))
    check_rng = _rng(seed, "identity/3-6")

    def run():
        D = hessian.det_exact(hessian.assemble(A))
        dM = linalg.det_exact_generic([[A.get(I) for I in row] for row in m_rows])
        return {"det": D, "identity_zero": (D - dM * dM * dM * 2).is_zero()}

    def check(r) -> None:
        require(r["identity_zero"] is True, "det H(3,6) != 2 det(M)^3")
        _check_symbolic_det(3, 6, r["det"], check_rng, "identity (3,6)")

    return Task("identity/3-6", False, run, check)


def _symdet_task(seed: int, k: int, N: int) -> Task:
    from blockhess import hessian

    check_rng = _rng(seed, f"symdet/{k}-{N}")
    return Task(f"symdet/{k}-{N}", False, lambda: hessian.det_exact(hessian.assemble_symbolic(k, N)),
                lambda D: _check_symbolic_det(k, N, D, check_rng, f"symdet {k},{N}"))


def _dual_layout_task(seed: int) -> Task:
    from blockhess import hessian

    check_rng = _rng(seed, "dual-layout/3-7")

    def check(Hd) -> None:
        require((Hd.k, Hd.N) == (4, 7), "dual layout shape")
        A = hessian.symbolic_coefficient_array(3, 7)
        nvars = next(iter(A.coeffs.values())).nvars
        for p in checks.PRIMES:
            point = [check_rng.randrange(p) for _ in range(nvars)]
            coeffs = {I: _poly_eval_mod(c, point, p) for I, c in A.coeffs.items()}
            numeric = [[_poly_eval_mod(e, point, p) for e in row] for row in Hd.rows]
            for b in range(4):  # the relabelled diagonal blocks vanish
                require(all(numeric[b * 3 + i][b * 3 + j] == 0 for i in range(3) for j in range(3)), "dual block")
            require(checks.det_mod(numeric, p) == checks.det_mod(checks.hessian_rows(3, 7, coeffs), p),
                    "duality reordering changed the determinant")

    return Task("dual-layout/3-7", False, lambda: hessian.dualize_layout(hessian.assemble_symbolic(3, 7)), check)


def _translate_task(seed: int, k: int, N: int, i: int) -> Task:
    """Criterion 13: the translated array's Hessian at 0 equals the second
    partials of the original form at X."""
    from blockhess import exterior

    rng = _rng(seed, f"translate/{k}-{N}/{i}")
    # Nonzero coefficients and coordinates, so the cost does not swing with the seed.
    coeffs = {I: rng.choice((-2, -1, 1, 2)) for I in checks.all_indices(k, N)}
    rows = [[Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3)) for _ in range(N - k)] for _ in range(k)]
    A = exterior.ExteriorArray(k, N, coeffs)
    X = exterior.ChartPoint.from_rows(k, N, rows)

    def check(B) -> None:
        require(checks.hessian_rows(k, N, B.coeffs) == checks.second_partials(coeffs, k, rows),
                f"translate {k},{N}: Hessian at 0 != second partials at X")

    return Task(f"translate/{k}-{N}/{i}", True, lambda: exterior.act_translation(A, X), check)


def _assemble_dual_task(seed: int, k: int, N: int, i: int) -> Task:
    """The Hessian at the opposite coordinate point: assemble(A . w) for the
    block swap w, checked against the swapped coefficients read directly."""
    from blockhess import exterior, hessian

    coeffs = _random_coeffs(_rng(seed, f"assemble-dual/{k}-{N}/{i}"), k, N, -3, 3)
    A = exterior.ExteriorArray(k, N, coeffs)
    image = {j: N - k + j if j <= k else j - k for j in range(1, N + 1)}  # w e_j = e_image(j)
    swapped = {}
    for J in checks.all_indices(k, N):
        I, s = checks.sorted_with_sign(image[j] for j in J)
        swapped[J] = s * coeffs[I]
    want = checks.hessian_rows(k, N, swapped)

    def check(H) -> None:
        require(H.rows == want, f"assemble_dual {k},{N}: differs from the swapped coefficients")

    return Task(f"assemble-dual/{k}-{N}/{i}", True, lambda: hessian.assemble_dual(A), check)


def symbolic(seed: int, smoke: bool) -> list[Task]:
    tasks = [_identity_task(seed)]
    tasks += [_symdet_task(seed, k, N) for k, N in ((2, 6), (4, 6), (5, 7))]
    tasks.append(_dual_layout_task(seed))
    counts = ((3, 6, 1), (3, 7, 1)) if smoke else ((3, 6, 4), (3, 7, 6), (4, 8, 3), (4, 9, 2))
    tasks += [_translate_task(seed, k, N, i) for k, N, n in counts for i in range(n)]
    tasks += [_assemble_dual_task(seed, k, N, i) for k, N in ((3, 9), (4, 9)) for i in range(1 if smoke else 2)]
    Js = random.Random(f"symbolic/{seed}").sample(_admissible(4, 9, 0) + _admissible(4, 9, 1), 3)[:1 if smoke else 3]
    tasks += [_limits_task(4, 9, J) for J in Js]
    return tasks


# ---------------------------------------------------------------------------
# cli


@dataclass
class CliResult:
    stdout: bytes
    status: int
    maxrss_kb: int
    extra: bytes = b""  # bytes the command wrote to its --output file


def child_env(root: Path) -> dict:
    """Children import blockhess (and the tracing shim) from this checkout only."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(cmd: list[str], cwd: Path, env: dict) -> CliResult:
    """Run one child to completion and reap it with its own resource usage."""
    with open(cwd / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(out, proc.returncode, usage.ru_maxrss)


def cli_digest_bytes(res: CliResult) -> bytes:
    return res.stdout + res.extra + f"\nexit={res.status}\n".encode("ascii")


def _records(res: CliResult, command: str) -> list[dict]:
    require(res.status == 0, f"{command}: exit status {res.status}")
    lines = res.stdout.decode("utf-8").splitlines()
    require(len(lines) >= 2, f"{command}: no result records")
    meta, records = json.loads(lines[0]), [json.loads(line) for line in lines[1:]]
    require(meta.get("command") == command, f"{command}: meta line names {meta.get('command')!r}")
    for rec in records:
        for flag in ("pass", "structure_ok", "equal", "multiplicative", "limits_independent"):
            require(rec.get(flag, True) is True, f"{command}: record has {flag} = {rec.get(flag)}")
    return records


def _array_doc(coeffs: dict, k: int, N: int) -> dict:
    return {"k": k, "N": N, "entries": [{"I": list(I), "c": str(c)} for I, c in sorted(coeffs.items())]}


def cli(seed: int, smoke: bool, workdir: Path) -> list[Task]:
    """Every README command, one child process at a time, on seeded inputs."""
    from blockhess import certificates

    root = Path(__file__).resolve().parent.parent
    env = child_env(root)
    rng = random.Random(f"cli/{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    arr = _random_coeffs(rng, 3, 8, -4, 4)
    a6, b7 = _random_coeffs(rng, 3, 6, -4, 4), _random_coeffs(rng, 3, 7, -4, 4)
    point = [[Fraction(rng.randint(-2, 2)) for _ in range(5)] for _ in range(3)]
    (workdir / "array.json").write_text(json.dumps(_array_doc(arr, 3, 8)))
    (workdir / "a.json").write_text(json.dumps(_array_doc(a6, 3, 6)))
    (workdir / "b.json").write_text(json.dumps(_array_doc(b7, 3, 7)))
    (workdir / "point.json").write_text(json.dumps({"rows": [[str(x) for x in row] for row in point]}))
    # A record the package does not embed, so verify re-derives every claim.
    certificates.export_certificate(certificates.build_corank1(3, 12, rng.randrange(1 << 16)), workdir / "exported.json")
    h36_seed = rng.randrange(1 << 16)
    own = checks.hessian_rows(3, 8, arr)

    def det_check(recs):
        checks.check_det(own, Fraction(str(recs[0]["det"])), "cli det")

    def det_mod_check(recs):
        p = recs[0]["mod"]
        require(recs[0]["det"] == checks.det_mod(own, p), "cli det --mod")

    def rank_check(recs):
        checks.check_rank(own, recs[0]["rank"], "cli rank")
        for i, r in enumerate(recs[0]["block_row_ranks"]):
            checks.check_rank(own[i * 5:(i + 1) * 5], r, "cli rank block row")

    def specialize_check(recs):
        r = recs[0]
        require(r["det_embedded"] == r["det_first"] * r["det_second"], "cli specialize: det(E) != det * det")
        checks.check_det(checks.hessian_rows(3, 6, a6), r["det_first"], "cli specialize first")
        checks.check_det(checks.hessian_rows(3, 7, b7), r["det_second"], "cli specialize second")

    def critical_check(recs):
        base = checks.frame_form(arr, 3, point)
        grad = []
        for p in range(3):
            row = []
            for t in range(5):  # F is affine in each coordinate, so a unit step is the partial
                moved = [list(r) for r in point]
                moved[p][t] += 1
                row.append(checks.frame_form(arr, 3, moved) - base)
            grad.append(row)
        r = recs[0]
        require([[Fraction(str(x)) for x in row] for row in r["gradient"]] == grad, "cli critical: gradient")
        require(r["critical"] == (base == 0 and all(x == 0 for row in grad for x in row)), "cli critical flag")

    def degrees_check(recs):
        require(recs[0]["total"] == 15, "cli degrees: total degree of (3,8) is 15")

    def none(recs):
        pass

    commands = [  # (id, argv, seeded, extra check)
        ("degrees", ["degrees", "--k", "3", "--N", "8"], False, degrees_check),
        ("verify-certificates", ["verify-certificates"], False, none),
        ("verify-certificates-id", ["verify-certificates", "--id", "corank-3-9"], False, none),
        ("verify-node", ["verify-node", "--id", "node-3-10"], False, none),
        ("identity-h36", ["identity-h36", "--trials", "20", "--seed", str(h36_seed)], True, none),
        ("node-limits", ["node", "--k", "3", "--N", "7", "--J", "5,6,7", "--limits"], False, none),
        ("node-T", ["node", "--k", "3", "--N", "7", "--J", "5,6,7", "--T", "1/2"], False, none),
        ("irreducible", ["irreducible", "--k", "3", "--N", "11"], False, none),
        ("irreducible-schedule", ["irreducible", "--k", "4", "--N-max", "16"], False, none),
        ("duality", ["duality", "--k", "3", "--N", "7", "--symbolic"], False, none),
        ("hessian", ["hessian", "--k", "3", "--N", "6"], False, none),
        ("det", ["det", "--input", "array.json"], True, det_check),
        ("det-mod", ["det", "--input", "array.json", "--mod", "2147483647"], True, det_mod_check),
        ("rank", ["rank", "--input", "array.json"], True, rank_check),
        ("critical", ["critical", "--input", "array.json", "--point", "point.json"], True, critical_check),
        ("specialize", ["specialize", "a.json", "b.json"], True, specialize_check),
        ("verify-input", ["verify-certificates", "--input", "exported.json"], True, none),
        ("degrees-text", ["degrees", "--k", "3", "--N", "8", "--format", "text"], False, None),
        ("degrees-output", ["degrees", "--k", "3", "--N", "8", "--output", "degrees.out"], False, None),
    ]
    if smoke:
        commands = [c for c in commands if c[0] in ("degrees", "det", "irreducible", "degrees-output")]

    tasks = []
    for tid, argv, seeded, extra in commands:
        def run(argv=argv):
            res = run_child([sys.executable, "-m", "blockhess.cli", *argv], workdir, env)
            if "--output" in argv:
                res.extra = (workdir / argv[argv.index("--output") + 1]).read_bytes()
            return res

        def check(res, argv=argv, extra=extra):
            if extra is not None:
                extra(_records(res, argv[0]))
            elif "--output" in argv:
                require(res.status == 0 and not res.stdout, f"{argv}: stdout not redirected")
                _records(CliResult(res.extra, 0, 0), argv[0])
            else:
                require(res.status == 0 and res.stdout.strip(), f"{argv}: empty text output")

        tasks.append(Task(f"cli/{tid}", seeded, run, check, argv))
    return tasks
