"""The repository's benchmark: workloads, row checks and layer tracing.

Run it with ``python3 perfbench/run.py --workload <name>``; see ``README.md``.
"""
