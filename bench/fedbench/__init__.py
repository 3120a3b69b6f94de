"""Benchmark of the fedfog package: workloads, output checks and layer tracing.

`bench/run.py` is the entry point; see `bench/README.md`.
"""
