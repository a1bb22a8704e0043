"""One workload in one process: ``python3 -m perfbench.worker ...``.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout.  One
caller, closed loop, no threads: each task starts when the previous one has
finished, and a pass runs the whole task list once, so every pass has the
same mix.  Pass 1 also runs each task's independent check, outside its
timed region, and compares its digest with the golden record; every later
pass must reproduce pass 1's digests.

* ``--trace 0``: passes repeat until ``--seconds`` have gone by, with the
  set-up probes spread between them.  A task's time is the fastest of its
  passes (see ``e2e_metrics``).
* ``--trace 1``: pass 1, pass 2 plain, pass 3 with the tracer installed.
  Per-layer figures come from pass 3 alone, and ``trace.overhead_ratio``
  is pass 3's task time over pass 2's.

The last stdout line is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from . import checks, layers, workloads
from .tracer import Spans, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
GOLDEN = ROOT / "perfbench" / "golden.json"
GOLDEN_SEED = 0
SETUP_SAMPLES = 21


class Runner:
    def __init__(self, seed: int, golden: dict | None) -> None:
        self.seed = seed
        self.golden = golden  # None: no golden comparison
        self.digests: dict[str, str] = {}  # pass 1's, which later passes must reproduce
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.child_rss_kb = 0
        self.stdout_bytes: dict[str, int] = {}

    def _fail(self, task, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{task.id}: {message}")

    def execute(self, task, check: bool) -> float:
        """Run one task; returns its timed seconds (failures included)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = task.run()
        except Exception:
            dt = time.perf_counter() - t0
            self._fail(task, traceback.format_exc(limit=3).strip().splitlines()[-1])
            return dt
        dt = time.perf_counter() - t0
        if isinstance(result, workloads.CliResult):
            self.child_rss_kb = max(self.child_rss_kb, result.maxrss_kb)
            self.stdout_bytes[task.id] = len(result.stdout) + len(result.extra)
            d = checks.digest_bytes(workloads.cli_digest_bytes(result))
        else:
            d = checks.digest(result)
        if not check:
            if d != self.digests.get(task.id):
                self._fail(task, "result differs from the checked pass")
            return dt
        try:
            task.check(result)
        except Exception as exc:  # a check that crashes fails its task too
            self._fail(task, f"check: {type(exc).__name__}: {exc}")
            return dt
        self.digests[task.id] = d
        # Every task has a golden digest at the golden seed; an unseeded task
        # (e.g. a limit span sampled at another seed) must match one if it has it.
        if self.golden is not None:
            want = self.golden.get(task.id)
            if want is None and self.seed == GOLDEN_SEED:
                self._fail(task, "no digest in the golden record")
            elif want is not None and (not task.seeded or self.seed == GOLDEN_SEED) and d != want:
                self._fail(task, "digest differs from the golden record")
        return dt

    def run_pass(self, tasks, check: bool) -> list[float]:
        return [self.execute(t, check) for t in tasks]


def setup_probe(workload: str, cpus: list[int]) -> float:
    """Import time of the workload's modules in a fresh interpreter: the
    faster of one interpreter on each CPU (see ``timed_passes``)."""
    best = float("inf")
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.probe", *workloads.SETUP_MODULES[workload]],
            cwd=ROOT, env=workloads.child_env(ROOT), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, check=True,
        )
        best = min(best, float(proc.stdout.decode("ascii").split()[-1]))
    return best


def timed_passes(runner: Runner, tasks, workload: str, seconds: float) -> tuple[list[list[float]], list[float]]:
    """Pass 1 checked, then plain passes until ``seconds`` have gone by.

    Passes take turns on the CPUs this process may use: the host slows each
    CPU on its own, for seconds to minutes, and a process left where the
    scheduler put it can spend a whole run on the slowed one.  The set-up
    probes are spread over the run rather than bunched at its start, so
    that they see the same stretches of host speed as the passes.
    """
    cpus = sorted(os.sched_getaffinity(0))
    probe_every = seconds / SETUP_SAMPLES
    probes: list[float] = []
    passes: list[list[float]] = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        while len(probes) < SETUP_SAMPLES and time.monotonic() - start >= len(probes) * probe_every:
            probes.append(setup_probe(workload, cpus))
        os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
        passes.append(runner.run_pass(tasks, check=not passes))
    while len(probes) < SETUP_SAMPLES:
        probes.append(setup_probe(workload, cpus))
    os.sched_setaffinity(0, cpus)
    return passes, probes


def e2e_metrics(passes: list[list[float]], probes: list[float], rss_kb: int, attempted: int, failed: int) -> dict:
    """End-to-end figures of one run.

    A task's time is the fastest of its passes.  The host's speed switches
    between levels up to 1.5x apart, and how much of a run falls in each is
    chance; the fastest pass of a task is what the code costs when the
    processor is not taken from it, and it repeats from run to run where a
    mean or median over passes follows the host.  There is no p90: a run
    has 19 to 55 task times, too few for ten of them to lie beyond it.
    ``setup_s`` is the median of the run's set-up probes.
    """
    best = [min(ts) for ts in zip(*passes)]
    return {
        "tasks_per_s": (1 - failed / attempted) * len(best) / sum(best),
        "task_p50_ms": 1000 * statistics.median(best),
        "peak_rss_mb": rss_kb / 1024,
        "setup_s": statistics.median(probes),
    }


def cli_startup_s(workdir: Path) -> float:
    """Median wall time of a child that only imports blockhess.cli."""
    env = workloads.child_env(ROOT)
    walls = []
    for _ in range(5):
        t0 = time.perf_counter()
        res = workloads.run_child([sys.executable, "-c", "import blockhess.cli"], workdir, env)
        walls.append(time.perf_counter() - t0)
        if res.status != 0:
            raise RuntimeError("importing blockhess.cli failed in a child process")
    return statistics.median(walls)


def traced_cli_pass(runner: Runner, tasks, workdir: Path) -> tuple[list[float], Spans]:
    """Each command once, in a child that runs it under the tracer."""
    env = workloads.child_env(ROOT)
    spans = Spans()
    times = []
    for task in tasks:
        path = workdir / "spans.json.gz"
        argv = task.argv

        def run(argv=argv, path=path):
            res = workloads.run_child([sys.executable, "-m", "perfbench.traced_cli", str(path), *argv], workdir, env)
            if "--output" in argv:
                res.extra = (workdir / argv[argv.index("--output") + 1]).read_bytes()
            return res

        times.append(runner.execute(workloads.Task(task.id, task.seeded, run, task.check, argv), check=False))
        if path.exists():
            spans.extend(Spans.read(path))
            path.unlink()
    return times, spans


def traced_metrics(runner: Runner, tasks, workload: str, seed: int, workdir: Path) -> dict:
    runner.run_pass(tasks, check=True)
    plain = runner.run_pass(tasks, check=False)
    cli_stats = None
    if workload == "cli":
        startup = cli_startup_s(workdir)
        traced, spans = traced_cli_pass(runner, tasks, workdir)
        cli_stats = {
            "startup_s": startup,
            "command_s": sum(plain) - startup * len(plain),
            "stdout_bytes": sum(runner.stdout_bytes.values()),
        }
    else:
        with Tracer() as tracer:
            traced = runner.run_pass(tasks, check=False)
        spans = tracer.spans
    OUT.mkdir(parents=True, exist_ok=True)
    spans.write(OUT / f"spans-{workload}-seed{seed}.json.gz")
    return layers.layer_metrics(spans, cli_stats, sum(traced) / sum(plain))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="a reduced task list")
    ap.add_argument("--golden", default=str(GOLDEN), help="golden digest file ('' for none)")
    args = ap.parse_args(argv)

    golden = None
    if args.golden:
        golden = json.loads(Path(args.golden).read_text())["workloads"].get(args.workload, {})
    workdir = OUT / f"work-{args.workload}-{args.seed}-{args.trace}"
    tasks = workloads.build(args.workload, args.seed, args.smoke, workdir)
    runner = Runner(args.seed, golden)

    out: dict = {"tasks": [t.id for t in tasks]}
    if args.trace == 0:
        passes, probes = timed_passes(runner, tasks, args.workload, args.seconds)
        rss_kb = runner.child_rss_kb if args.workload == "cli" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["passes"] = len(passes)
        out["best_ms"] = {t.id: 1000 * min(ts) for t, ts in zip(tasks, zip(*passes))}
        out["metrics"] = e2e_metrics(passes, probes, rss_kb, runner.attempted, runner.failed)
    else:
        out["passes"] = 3
        out["metrics"] = traced_metrics(runner, tasks, args.workload, args.seed, workdir)
    out.update(attempted=runner.attempted, failed=runner.failed, errors=runner.errors, digests=runner.digests)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
