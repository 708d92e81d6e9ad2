"""Benchmark harness for vortexcc: seeded workloads, output checks and span tracing.

Run one workload from the repository root with::

    python3 perfbench/run.py --workload solve-isolated --seed 1 --seconds 25 --trace 0
"""
