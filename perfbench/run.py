"""Layered benchmark for blockhess.

Run from the root of a checkout::

    python3 perfbench/run.py --workload exact-q --seed 0 --seconds 10 --trace 0

Workloads: ``exact-q``, ``modp-lines``, ``symbolic``, ``cli`` (see
``perfbench/workloads.py`` for what each one exercises and why).  The
benchmark builds its inputs from ``--seed``, runs the workload in one
worker process importing ``src/blockhess`` from this checkout (see
``perfbench/worker.py``), checks every result independently and against
the digests in ``perfbench/golden.json``, and prints one JSON object as its
last stdout line:

* ``--trace 0``: the end-to-end metrics ``tasks_per_s``, ``task_p50_ms``,
  ``peak_rss_mb`` and ``setup_s`` (import time of the workload's modules
  in fresh interpreters, median over the run), from passes repeated for
  ``--seconds``;
* ``--trace 1``: the per-layer metrics of ``perfbench/layers.py``, from one
  pass with every public library function wrapped in a span.

The full record -- environment, seed, task list, errors -- is written to
``perfbench/out/result-<workload>-seed<seed>-trace<trace>.json``; compare
two of them with ``python3 perfbench/compare.py A.json B.json``.
``--write-golden`` re-records the default-seed digests; only do that for a
change that is meant to alter results.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)

from perfbench import layers, workloads  # noqa: E402

OUT = ROOT / "perfbench" / "out"
GOLDEN = ROOT / "perfbench" / "golden.json"
E2E_UNITS = {"tasks_per_s": "1/s", "task_p50_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
DEADLINE_S = 170.0  # a run must end within 180 s


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": git_sha(ROOT),
    }


def run_worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.worker", *args], cwd=ROOT, env=workloads.child_env(ROOT),
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args[:2])} exited with status {proc.returncode}")
    return json.loads(proc.stdout.decode("utf-8").strip().splitlines()[-1])


def write_golden() -> None:
    doc = {"seed": 0, "workloads": {}}
    for w in workloads.WORKLOADS:
        res = run_worker(["--workload", w, "--seed", "0", "--golden", ""], 600)
        if res["failed"]:
            raise RuntimeError(f"{w}: {res['failed']} task(s) failed; not recording digests: {res['errors']}")
        doc["workloads"][w] = dict(sorted(res["digests"].items()))
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Layered benchmark for blockhess.")
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="a reduced task list")
    ap.add_argument("--golden", default=str(GOLDEN), help="golden digest file ('' to skip the comparison)")
    ap.add_argument("--write-golden", action="store_true", help="re-record the default-seed digests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "blockhess" / "__init__.py").is_file():
        print(f"error: no blockhess sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_golden:
        write_golden()
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    res = run_worker(["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--golden", args.golden] + (["--smoke"] if args.smoke else []),
                     DEADLINE_S)
    units = E2E_UNITS if args.trace == 0 else layers.UNITS
    res["metrics"] = {name: {"value": res["metrics"][name], "unit": unit} for name, unit in units.items()}
    attempted, failed = res["attempted"], res["failed"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(),
        "tasks": res["tasks"],
        "passes": res["passes"],
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "errors": res["errors"],
        "metrics": res["metrics"],
        "best_ms": res.get("best_ms"),
    }
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    for err in res["errors"]:
        print(f"failed: {err}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
