"""Repository benchmark: four user-path workloads, per-layer spans.

Run one workload with ``python3 perfbench/run.py --workload NAME``; see
``perfbench/README.md`` for the workloads, metrics and traced mode.
"""
