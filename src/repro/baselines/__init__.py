"""Baseline training systems the paper compares against (Sec. 7.1).

Each baseline is HAP's synthesizer run over a restricted theory at fixed
ratios, on the same IR, cluster model and simulator as HAP, so the comparison
isolates the *strategy* (sharding/ratio/communication decisions) exactly as
the paper's testbed isolates the systems.  :func:`plan_baseline` plans
DP-EV, DP-CP, DeepSpeed or TAG by name and returns a
:class:`~repro.core.pipeline.HAPPlan`.
"""

from .planners import BASELINE_NAMES, plan_baseline

__all__ = [
    "plan_baseline",
    "BASELINE_NAMES",
]
