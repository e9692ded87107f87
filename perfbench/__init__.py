"""Benchmark harness for the maxconf package.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md`` for the workloads, the metrics and the seeds.
"""
