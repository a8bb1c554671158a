"""Benchmark of the hypergroup package: set-up, training throughput,
full-ranking evaluation and recommend latency on seeded synthetic workloads.

Run from the repository root::

    python3 perfbench/run.py --workload sparse-train --seed 1 --seconds 45 --trace 0

``--trace 1`` adds the per-layer numbers and the tracing overhead.
``python3 -m unittest perfbench.selftest`` checks the benchmark itself at
a tiny scale.
"""
