"""Benchmark of uplinksim: workloads, output checks and the traced run.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the root of a checkout; see ``perfbench/README.md``.
"""
