"""Run one ``blockhess`` command with the tracer installed.

Usage: ``python3 -m perfbench.traced_cli SPANS_FILE ARGS...``.  Stdout and
the exit status are the command's own; the spans go to SPANS_FILE.
"""

import sys

import blockhess.cli

from .tracer import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    with Tracer() as tracer:
        status = blockhess.cli.main(argv)
    sys.stdout.flush()
    tracer.spans.write(out)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
