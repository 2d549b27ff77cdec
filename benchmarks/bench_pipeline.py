"""Compatibility shim for the e2e benchmark's ``moe-memory`` cluster.

The memory-constrained testbed lives in :mod:`repro.cluster` as
:func:`~repro.cluster.memory_constrained_testbed`.  ``benchmarks/e2e/``
still imports it from here under its old name, and its runner refuses to
start without this file.  Delete this file, and point
``benchmarks/e2e/workloads.py`` at ``repro.cluster``, the next time
``benchmarks/e2e/`` changes.
"""

from repro.cluster import memory_constrained_testbed as _memory_constrained_cluster  # noqa: F401
