"""Wall-time benchmark for the RIPPLE reproduction.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one seeded workload through the public ``repro`` API, checks every
answer against a centralised oracle, and prints one JSON result line.
See ``perfbench/README.md`` for the workloads and metrics.
"""
