"""CLI golden outputs: one manifest, run in-process or against a console script.

Each entry of ``cli_golden.json`` pins one ``blockhess`` run: its ``argv``;
``files``, input name -> text, written into a fresh working directory since
input paths print in the meta line; the ``exit`` status; the ``stream``
pinned, ``stdout`` or ``stderr``; and its ``sha256``.  The Tier-1 test runs
each entry through ``blockhess.cli.main``.  As a script (stdlib only), this
runs each as a child process of a console script, with a 20 s timeout, prints
each entry that differs and exits 1 if any does::

    python tests/cli_golden.py venv/bin/blockhess
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

MANIFEST = Path(__file__).with_name("cli_golden.json")
TIMEOUT_S = 20


def load() -> list[dict]:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


@contextlib.contextmanager
def workdir(entry: dict):
    """A fresh directory holding the entry's input files."""
    with tempfile.TemporaryDirectory(prefix="cli-golden-") as tmp:
        for name, text in entry["files"].items():
            Path(tmp, name).write_text(text, encoding="utf-8", newline="")
        yield tmp


def run_in_process(entry: dict) -> tuple[int, bytes]:
    """The exit status and pinned stream of ``blockhess.cli.main`` on the entry."""
    from blockhess.cli import main

    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    with workdir(entry) as tmp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.chdir(tmp)
        try:
            code = main(entry["argv"])
        finally:
            os.chdir(cwd)
    return code, (out if entry["stream"] == "stdout" else err).getvalue().encode("utf-8")


def run_script(script: str, entry: dict) -> tuple[int, bytes]:
    """The exit status and pinned stream of ``script`` run on the entry."""
    with workdir(entry) as tmp:
        done = subprocess.run([script, *entry["argv"]], cwd=tmp, capture_output=True, timeout=TIMEOUT_S)
    return done.returncode, getattr(done, entry["stream"])


def mismatch(entry: dict, code: int, output: bytes) -> str | None:
    """None if the run gave what the entry pins, else a line naming it by its argv."""
    digest = hashlib.sha256(output).hexdigest()
    if (code, digest) == (entry["exit"], entry["sha256"]):
        return None
    pinned = f"pinned exit {entry['exit']}, sha256 {entry['sha256']}"
    return f"{' '.join(entry['argv'])}: exit {code}, {entry['stream']} sha256 {digest}; {pinned}"


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    script = shutil.which(args[0]) if len(args) == 1 else None
    if script is None:
        print(f"usage: python {Path(__file__).name} <console-script>", file=sys.stderr)
        return 2
    entries, failed = load(), 0
    for entry in entries:
        try:
            line = mismatch(entry, *run_script(os.path.abspath(script), entry))
        except subprocess.TimeoutExpired:
            line = f"{' '.join(entry['argv'])}: no exit within {TIMEOUT_S} s"
        if line:
            failed += 1
            print(line, flush=True)
    print(f"{len(entries)} entries, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
