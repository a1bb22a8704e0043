"""Time the set-up imports of one workload in a fresh interpreter.

Usage: ``python3 -m perfbench.probe MODULE...``; prints the seconds spent
importing the named modules.  It imports nothing else first, so the
standard-library modules blockhess pulls in are part of the figure.
"""

import importlib
import sys
import time

t0 = time.perf_counter()
for name in sys.argv[1:]:
    importlib.import_module(name)
print(repr(time.perf_counter() - t0))
