"""The benchmark's own test: ``python3 perfbench/selftest.py``.

1. Smoke pass: every workload at minimal size, in both trace modes, must
   report no failure and emit every metric BENCHMARK.json names, with its
   unit.
2. Negative tests: one wrong golden digest, and one missing digest, must
   each make a task fail.
3. Exact counts: two traced runs at one seed must agree on every count
   (``.calls``, ``.cells``, ``.term_pairs`` and the other count metrics)
   at full size.
4. ``compare.py`` must refuse results from different seeds.
5. Without the library sources the benchmark must exit nonzero and print
   no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)

from perfbench import layers, workloads  # noqa: E402

OUT = ROOT / "perfbench" / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def smoke() -> None:
    wanted = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    expect(wanted[1] == layers.UNITS, "BENCHMARK.json per_layer matches perfbench/layers.py")
    expect([w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS), "BENCHMARK.json workloads")
    for w in workloads.WORKLOADS:
        for trace in (0, 1):
            status, res = bench("--workload", w, "--seed", "0", "--seconds", "0", "--trace", str(trace), "--smoke")
            expect(status == 0 and res is not None, f"{w} trace {trace}: exit 0 with a result")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0, f"{w} trace {trace}: failed_frac = 0")
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            expect(got == wanted[trace], f"{w} trace {trace}: every named metric, with its unit")


def negative() -> None:
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    victim = "verify/corank-3-9"
    OUT.mkdir(parents=True, exist_ok=True)
    bad = OUT / "golden-wrong.json"
    for case in ("a wrong digest", "a missing digest"):
        entries = dict(golden["workloads"]["exact-q"])
        if case == "a wrong digest":
            entries[victim] = "0" * 64
        else:
            del entries[victim]
        bad.write_text(json.dumps({"seed": 0, "workloads": {"exact-q": entries}}))
        status, res = bench("--workload", "exact-q", "--seed", "0", "--seconds", "0", "--trace", "0", "--smoke",
                            "--golden", str(bad))
        expect(status == 0 and res is not None, f"negative test with {case} ran")
        expect(res["failed"] > 0 and not res["correct"], f"{case} for {victim} gives failed_frac > 0")


def exact_counts() -> None:
    for w in workloads.WORKLOADS:
        runs = []
        for _ in range(2):
            status, res = bench("--workload", w, "--seed", "3", "--trace", "1")
            expect(status == 0 and res is not None and res["correct"], f"{w}: traced run passes")
            runs.append({n: res["metrics"][n]["value"] for n in layers.EXACT})
        diff = {n: (runs[0][n], runs[1][n]) for n in layers.EXACT if runs[0][n] != runs[1][n]}
        expect(not diff, f"{w}: counts repeat exactly across two traced runs {diff or ''}")


def compare_refuses() -> None:
    for seed in ("1", "2"):
        bench("--workload", "symbolic", "--seed", seed, "--seconds", "0", "--trace", "0", "--smoke")
    files = [str(OUT / f"result-symbolic-seed{s}-trace0-smoke.json") for s in (1, 2)]
    proc = subprocess.run([sys.executable, "perfbench/compare.py", *files], cwd=ROOT, capture_output=True, text=True)
    expect(proc.returncode == 2 and "seed" in proc.stderr, "compare.py refuses results of different seeds")


def bare_directory() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    status, res = bench("--workload", "exact-q", "--seed", "0", "--seconds", "0", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    expect(status != 0 and res is None, "without src/blockhess the benchmark exits nonzero and prints no result")


def main() -> int:
    smoke()
    negative()
    exact_counts()
    compare_refuses()
    bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
