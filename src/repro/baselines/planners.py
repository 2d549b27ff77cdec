"""Baseline planners: DP-EV, DP-CP, DeepSpeed-like and TAG-like.

Every baseline is a point in HAP's own search space: HAP's synthesizer run
once over a restricted background theory (see
``SynthesisConfig.force_data_parallel``) at fixed sharding ratios, with no
load balancing.  So each baseline produces a :class:`~repro.core.pipeline.HAPPlan`
that can be costed, simulated, verified and executed like HAP's own.

* ``DP-EV`` — PyTorch-DDP data parallelism with even ratios.
* ``DP-CP`` — the same data parallelism with computation-proportional ratios.
* ``DeepSpeed`` — ZeRO-style data parallelism plus expert parallelism: dense
  parameters are replicated with gradient all-reduce, expert (rank-3)
  parameters are sharded evenly on the expert dimension, as DeepSpeed-MoE
  does.  The experiment harness builds the model with the expert count
  padded to a multiple of the device count for this baseline (Sec. 7.6).
* ``TAG`` — even data parallelism with automatic sufficient-factor
  broadcasting and gradient-aggregation choice.  TAG's inter-op placement on
  small clusters is out of scope, since every system in the comparison runs
  one SPMD program across all devices.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..cluster.spec import ClusterSpec
from ..core.config import SynthesisConfig
from ..core.pipeline import HAPPlan, HAPPlanner
from ..graph.graph import ComputationGraph
from ..hap import _training_graph

#: Baseline name -> (expert parallelism, SFB, fixed-ratio rule).  Every
#: baseline is data parallel with only the padded All-Gather.
_BASELINES = {
    "DP-EV": (False, False, ClusterSpec.even_ratios),
    "DP-CP": (False, False, ClusterSpec.proportional_ratios),
    "DeepSpeed": (True, False, ClusterSpec.even_ratios),
    "TAG": (False, True, ClusterSpec.even_ratios),
}

BASELINE_NAMES = list(_BASELINES)


def plan_baseline(
    name: str,
    model: ComputationGraph,
    cluster: ClusterSpec,
    synthesis: Optional[SynthesisConfig] = None,
) -> HAPPlan:
    """Plan the baseline ``name`` (one of :data:`BASELINE_NAMES`).

    ``model`` is a forward graph with a marked loss or a training graph;
    ``synthesis`` supplies the search knobs (beam width, verification) that
    the baseline's restrictions leave open.
    """
    try:
        expert_parallel, sfb, ratio_rule = _BASELINES[name]
    except KeyError:
        raise KeyError(f"unknown baseline {name!r}; known: {BASELINE_NAMES}") from None
    restricted = replace(
        synthesis or SynthesisConfig(),
        force_data_parallel=True,
        expert_parallel_parameters=expert_parallel,
        enable_sfb=sfb,
        enable_grouped_all_gather=False,
    )
    return HAPPlanner(_training_graph(model), cluster, restricted).plan_at(ratio_rule(cluster))
