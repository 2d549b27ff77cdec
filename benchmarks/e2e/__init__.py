"""End-to-end planner benchmark: cold and warm planning time, plan quality and
memory on four workloads, host-normalized, with an outside-in layer trace.

Run it as ``python3 benchmarks/e2e/run.py --workload <name> --seed <n>``; see
``benchmarks/e2e/README.md``.  Importing this package imports nothing from
``repro``, so child processes can time their own imports.
"""
