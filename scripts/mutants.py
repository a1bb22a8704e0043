"""Mutation check of the exact kernels.

Each mutant is a one-line edit ``(file, old, new)`` to a kernel line, named
and paired with the test modules that must catch it.  For each mutant the
script copies ``src/``, ``scripts/`` and ``tests/`` into a fresh temporary
directory, replaces the one occurrence of ``old`` by ``new`` there, and runs
the modules' tests on the copy with a fixed Hypothesis seed.  A mutant is
killed when a test fails (pytest exit code 1) or the run passes the time
limit; it survives when the tests pass.  Any other exit code (an interrupted
run, a usage error, no tests collected) is an error, not a kill.  Before the
mutants, the same tests run once on an unmutated copy, which must pass: a
copy that cannot import the package or its tests, or a missing pytest or
hypothesis, fails there instead of killing every mutant.  The checkout
itself is never written.

Run from the root of a checkout (needs pytest and hypothesis)::

    python scripts/mutants.py

Prints one line per mutant and exits 1 if the unmutated copy fails, if any
mutant survives or ends in an error, or if an ``old`` line no longer occurs
exactly once in its file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600

LINALG = "src/blockhess/linalg.py"
HESSIAN = "src/blockhess/hessian.py"
RING = "src/blockhess/ring.py"
EXTERIOR = "src/blockhess/exterior.py"
IRREDUCIBILITY = "src/blockhess/irreducibility.py"
MULTIINDEX = "src/blockhess/multiindex.py"
LINALG_TESTS = ("tests/test_linalg.py",)
GOLDEN = "tests/test_cli_golden.py"  # for a line that a pinned CLI output runs

# (name, file, old line, new line, test modules)
MUTANTS = (
    (
        "barrett-quotient", LINALG,
        "        X -= p * ((X * mu >> ebits) & qmask)",
        "        X -= p * ((X * mu >> ebits + 1) & qmask)",
        LINALG_TESTS,
    ),
    (
        "slot-width", LINALG,
        "    nbytes = (ebits + mu.bit_length() + 7) // 8",
        "    nbytes = (ebits + 7) // 8",
        LINALG_TESTS,
    ),
    (
        "pack-sign-fix-dropped", LINALG,
        "        a.append(r - ((r >> 63) & ones) * lift)",
        "        a.append(r)",
        LINALG_TESTS,
    ),
    (
        "pack-no-centring", LINALG,
        "            packed = row_struct.pack(*[v - p if v >> 63 else v for v in residues])",
        "            packed = row_struct.pack(*residues)",
        LINALG_TESTS,
    ),
    (
        "pack-start-bound", LINALG,
        "    ebits = ((1 << 63) + p + ncols * (p - 1) ** 2).bit_length()",
        "    ebits = ((p - 1) + ncols * (p - 1) ** 2).bit_length()",
        LINALG_TESTS,
    ),
    (
        "span-insert", LINALG,
        "    return len(a) == len(b) and not any(_insert(a, r) for r in b.values())",
        "    return len(a) == len(b) and not any(_insert(b, r) for r in b.values())",
        LINALG_TESTS,
    ),
    (
        "span-basis-size", LINALG,
        "    return len(a) == len(b) and not any(_insert(a, r) for r in b.values())",
        "    return len(a) >= len(b) and not any(_insert(a, r) for r in b.values())",
        LINALG_TESTS,
    ),
    (
        "full-rank-shortcut-widened", LINALG,
        "        r = rp if rp == min(len(s), len(s[0])) else rank_fraction(s)",
        "        r = rp if rp >= min(len(s), len(s[0])) - 1 else rank_fraction(s)",
        ("tests/test_hessian.py",),
    ),
    (
        "full-rank-shortcut-dropped", LINALG,
        "        r = rp if rp == min(len(s), len(s[0])) else rank_fraction(s)",
        "        r = rank_fraction(s)",
        ("tests/test_hessian.py",),
    ),
    (
        "parity-sign", LINALG,
        "    return -1 if swaps % 2 else 1",
        "    return 1",
        LINALG_TESTS,
    ),
    (
        "non-square-rule", LINALG,
        "    elif any(len(rows) != len(cols) for rows, cols in parts):",
        "    elif False:",
        LINALG_TESTS,
    ),
    (
        "zero-entry-scale", LINALG,
        "                nxt.append([p * x // prev for x in row[1:]])",
        "                nxt.append(row[1:])",
        LINALG_TESTS,
    ),
    (
        "heap-guard-inverted", RING,
        "        if q & guard != guard:",
        "        if q & guard == guard:",
        ("tests/test_ring.py", GOLDEN),
    ),
    (
        "translation-scale-by-rows", EXTERIOR,
        "    scales = [D * L**r for r in range(k + 1)]  # by the number of rows",
        "    scales = [D * L for r in range(k + 1)]  # by the number of rows",
        ("tests/test_exterior.py", GOLDEN),
    ),
    (
        "translation-between-includes-t", EXTERIOR,
        "            between = tbit - (2 << p)  # the bits strictly between p and t",
        "            between = (tbit << 1) - (2 << p)  # the bits strictly between p and t",
        ("tests/test_exterior.py", GOLDEN),
    ),
    (
        "star-needs-all-entries", EXTERIOR,
        "    return not any(len(members.intersection(I)) >= A.k - 1 for I in A.coeffs)",
        "    return not any(len(members.intersection(I)) >= A.k for I in A.coeffs)",
        ("tests/test_exterior.py",),
    ),
    (
        "key-memo-ignores-shape", EXTERIOR,
        "    if (last_k, last_N) == (k, N) and len(keys) == len(last) and all(map(is_, keys, last)):",
        "    if len(keys) == len(last) and all(map(is_, keys, last)):",
        ("tests/test_exterior.py",),
    ),
    (
        "key-memo-by-equality", EXTERIOR,
        "    if (last_k, last_N) == (k, N) and len(keys) == len(last) and all(map(is_, keys, last)):",
        "    if (last_k, last_N) == (k, N) and tuple(keys) == last:",
        ("tests/test_exterior.py",),
    ),
    (
        "verdict-union", IRREDUCIBILITY,
        "    cand = {c for c in set.intersection(*sets) if all(d % step == 0 for d in c)}",
        "    cand = {c for c in set.union(*sets) if all(d % step == 0 for d in c)}",
        ("tests/test_irreducibility.py", GOLDEN),
    ),
    (
        "coarsening-opens-no-group", IRREDUCIBILITY,
        "            for i in range(len(g) + 1)",
        "            for i in range(max(len(g), 1))",
        ("tests/test_irreducibility.py",),
    ),
    (
        "coarsening-drops-tail", IRREDUCIBILITY,
        "            tuple(sorted(g[:i] + (g[i] + d,) + g[i + 1 :] if i < len(g) else g + (d,)))",
        "            tuple(sorted(g[:i] + (g[i] + d,) if i < len(g) else g + (d,)))",
        ("tests/test_irreducibility.py",),
    ),
    (
        "plan-sign", HESSIAN,
        "            odd = (2 * k - p - pp - 1) % 2",
        "            odd = (2 * k - p - pp) % 2",
        ("tests/test_hessian.py", GOLDEN),
    ),
    (
        "pairing-groups-swapped", MULTIINDEX,
        "        pairing = dict(zip(self.in_first + self.out_first, columns))",
        "        pairing = dict(zip(self.out_first + self.in_first, columns))",
        ("tests/test_multiindex.py", "tests/test_node_cusp.py", GOLDEN),
    ),
    (
        "pairing-sorted-by-column", MULTIINDEX,
        "        self.pairing = {r: pairing[r] for r in If}",
        "        self.pairing = dict(sorted(pairing.items(), key=lambda rs: rs[1]))",
        ("tests/test_multiindex.py", "tests/test_node_cusp.py"),
    ),
    (
        "root-structure-unchecked", RING,
        "    return g if [c * cs[-1] % p for c in _uni_pow_mod(g, r, p)] == cs else None",
        "    return g",
        ("tests/test_ring.py", GOLDEN),
    ),
)


def apply(tree: Path, path: str, old: str, new: str) -> None:
    """Replace the one line ``old`` of ``tree/path`` by ``new``."""
    target = tree / path
    lines = target.read_text().split("\n")
    hits = [i for i, line in enumerate(lines) if line == old]
    if len(hits) != 1:
        raise ValueError(f"{path}: the line {old.strip()!r} occurs {len(hits)} times, not once")
    lines[hits[0]] = new
    target.write_text("\n".join(lines))


def run(name: str, tests: tuple[str, ...], edit: tuple[str, str, str] | None = None) -> str:
    """Run ``tests`` on a temporary copy, with ``edit`` applied if given:
    'passed', 'failed', 'timeout' or 'ERROR (exit code n)'."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as tmp:
        tree = Path(tmp)
        for part in ("src", "scripts", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        if edit:
            apply(tree, *edit)
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0", *tests]
        try:
            done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout"
        return {0: "passed", 1: "failed"}.get(done.returncode, f"ERROR (exit code {done.returncode})")


def main() -> int:
    tests = tuple(sorted({t for *_, ts in MUTANTS for t in ts}))
    baseline = run("unmutated", tests)
    print(f"unmutated: {baseline}", flush=True)
    if baseline != "passed":
        print("the tests do not pass on the unmutated copy; no mutant was run")
        return 1
    bad = []
    for name, path, old, new, ts in MUTANTS:
        try:
            outcome = run(name, ts, (path, old, new))
        except ValueError as exc:
            outcome = f"STALE: {exc}"
        killed = outcome in ("failed", "timeout")
        verdict = f"killed ({outcome})" if killed else "SURVIVED" if outcome == "passed" else outcome
        print(f"{name}: {verdict}", flush=True)
        if not killed:
            bad.append(name)
    print(f"{len(bad)} mutant(s) not killed" + (f": {', '.join(bad)}" if bad else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
