"""Benchmark of the restartlp solvers; run ``python3 perfbench/run.py --help``."""
