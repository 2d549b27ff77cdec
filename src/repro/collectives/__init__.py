"""Collective communication: analytic cost models.

The planner and the simulator price collectives with :mod:`.cost`.  The
numpy functional emulation the SPMD runtime executes lives in
:mod:`repro.collectives.functional`; it is not re-exported here, so
importing this package does not import numpy.
"""

from .cost import (
    MEMCPY_BANDWIDTH,
    CollectiveCostModel,
    CollectiveKind,
    max_ratio,
)

__all__ = [
    "CollectiveCostModel",
    "CollectiveKind",
    "MEMCPY_BANDWIDTH",
    "max_ratio",
]
