"""Run-to-run spread of the end-to-end metrics.

Usage: ``python3 perfbench/spread.py OUT.json [--runs 10] [--first-seed 100]
[--workload W ...]``.  Runs each workload (every one by default) with
``--trace 0`` at BENCHMARK.json's run length, once per seed, one run after
another, and writes for each metric its values, their median and their
spread: (Q3 - Q1) / median, with the quartiles of
``statistics.quantiles(values, n=4)``, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {
        "run_seconds": spec["run_seconds"],
        "python": platform.python_version(),
        "platform": platform.platform(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    for w in args.workload or [w["name"] for w in spec["workloads"]]:
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True,
            )
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += res["failed"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        metrics = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            metrics[name] = {"median": med, "spread": (q3 - q1) / med, "bound": bounds[name], "values": vals}
            print(f"{w:11s} {name:12s} median {med:10.4f} spread {(q3 - q1) / med:.3f} bound {bounds[name]}")
        doc["workloads"][w] = {"seeds": seeds, "failed": failed, "metrics": metrics}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
