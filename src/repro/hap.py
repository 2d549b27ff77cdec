"""User-facing API, analogous to the paper's ``hap.HAP`` entry point (Sec. 6).

The paper's API takes a single-device PyTorch model plus a device
specification and returns a distributed model.  Here the "model" is a
single-device :class:`~repro.graph.graph.ComputationGraph` (forward graph with
a marked loss, or a full training graph) and the result is a
:class:`~repro.core.pipeline.HAPPlan` bundling the synthesized distributed
program, the optimised sharding ratios and the cost estimate.  The plan can be
executed with the SPMD runtime (:mod:`repro.runtime.spmd`) or replayed on the
execution simulator (:mod:`repro.simulator`).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator, Optional

from .autodiff import build_training_graph
from .cluster.spec import ClusterSpec
from .core.config import SynthesisConfig
from .core.hierarchical import HierarchicalConfig, HierarchicalPlan, HierarchicalPlanner
from .core.pipeline import HAPPlan, HAPPlanner
from .graph.graph import ComputationGraph
from .graph.ops import OpKind


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause Python's cyclic garbage collector; restore its state on exit.

    Planning creates no reference cycles (``tests/test_gc_pause.py`` guards
    it), so a collection during a plan traverses every live object and frees
    nothing.  Reference counting still frees all of the planner's garbage.
    The collector is re-enabled only if it was enabled on entry, so nested
    calls and exceptions leave the caller's state as it was.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _training_graph(model: ComputationGraph) -> ComputationGraph:
    """``model`` itself if it has optimizer-update nodes, else its training graph."""
    if any(node.kind is OpKind.OPTIMIZER for node in model):
        return model
    if model.loss is None:
        raise ValueError(
            "planning needs either a training graph (with sgd_update nodes) or a "
            "forward graph with a marked loss"
        )
    return build_training_graph(model).graph


def hap(
    model: ComputationGraph,
    cluster: ClusterSpec,
    config: Optional[SynthesisConfig] = None,
) -> HAPPlan:
    """Plan SPMD training of ``model`` on ``cluster``.

    The cyclic garbage collector is paused for the call (theory build in
    the planner's construction included) and restored on return or raise.

    Args:
        model: a single-device computation graph.  A forward graph with a
            marked loss is automatically expanded into the full training graph
            (forward + backward + SGD updates, at
            :func:`~repro.autodiff.build_training_graph`'s default learning
            rate); a graph that already contains ``sgd_update`` nodes is used
            as-is, so a caller who wants another learning rate builds the
            training graph first.
        cluster: the (possibly heterogeneous) target cluster.
        config: synthesis configuration; defaults to full HAP.  The planner
            synthesizes one program and balances it with one LP
            (:class:`~repro.core.pipeline.HAPPlanner`).

    Returns:
        The :class:`HAPPlan` with program, ratios and estimated iteration time.
    """
    with _collector_paused():
        return HAPPlanner(_training_graph(model), cluster, config).plan()


def hap_pipeline(
    model: ComputationGraph,
    cluster: ClusterSpec,
    config: Optional[HierarchicalConfig] = None,
) -> HierarchicalPlan:
    """Plan hierarchical (pipeline-over-SPMD) training of ``model``.

    Splits the cluster into contiguous machine groups sized to the cut's
    stage flops, cuts the model into one chunk per stage balanced against
    each group's compute, plans every chunk with flat HAP, and searches
    (stage count x schedule x microbatch count x recomputation) for the cheapest
    memory-feasible iteration (1 stage = flat HAP).  The result can be
    executed with :func:`repro.runtime.run_hierarchical_plan` or simulated
    with :func:`repro.simulator.simulate_hierarchical`.  The cyclic garbage
    collector is paused for the call and restored on return or raise.

    Args:
        model: a single-device *forward* graph with a marked loss (stages are
            differentiated individually, so a pre-built training graph is
            rejected).
        cluster: the (possibly heterogeneous) target cluster.
        config: hierarchical-planner configuration; defaults to searching
            every stage count, schedule and microbatch count.

    Returns:
        The winning :class:`HierarchicalPlan`.

    Raises:
        GraphError: (a ``ValueError``) if ``model`` is a training graph or has
            no marked loss.
    """
    with _collector_paused():
        return HierarchicalPlanner(model, cluster, config).plan()
