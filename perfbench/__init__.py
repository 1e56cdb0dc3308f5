"""Benchmark harness for modchar: workloads, correctness routes, tracer.

Run it with `python3 perfbench/run.py --workload <sums|verify|lfun|all>`
from the root of a source checkout; see run.py and README.md.
"""
