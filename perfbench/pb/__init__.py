"""End-to-end and per-layer benchmark of the DVFS reproduction.

Run it with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; METRICS.md lists
every metric it prints.
"""
