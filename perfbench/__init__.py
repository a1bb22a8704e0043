"""Layered benchmark for blockhess; run it with ``python3 perfbench/run.py``."""
