"""Compare two result files written by ``run.py``.

Usage: ``python3 perfbench/compare.py BASE.json NEW.json``.  Prints each
metric's base value, new value and new/base ratio.  Refuses (exit status 2)
when the two runs are not comparable: another workload, trace mode, seed,
task mix or Python version.
"""

from __future__ import annotations

import json
import sys


def incompatibilities(a: dict, b: dict) -> list[str]:
    out = []
    for key in ("workload", "trace", "seed", "smoke"):
        if a[key] != b[key]:
            out.append(f"{key}: {a[key]!r} vs {b[key]!r}")
    if a["tasks"] != b["tasks"]:
        out.append("task mix differs")
    if a["environment"]["python"] != b["environment"]["python"]:
        out.append(f"python: {a['environment']['python']} vs {b['environment']['python']}")
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = (json.loads(open(path, encoding="utf-8").read()) for path in argv)
    problems = incompatibilities(a, b)
    if problems:
        print("refusing to compare: " + "; ".join(problems), file=sys.stderr)
        return 2
    print(f"{'metric':48s} {'unit':6s} {'base':>14s} {'new':>14s} {'new/base':>9s}")
    for name, m in a["metrics"].items():
        base, new = m["value"], b["metrics"][name]["value"]
        ratio = f"{new / base:9.3f}" if base else "        -"
        print(f"{name:48s} {m['unit']:6s} {base:14.6g} {new:14.6g} {ratio}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
