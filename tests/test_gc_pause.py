"""Planning creates no reference cycles, so the planner pauses the collector.

``hap()`` and ``hap_pipeline()`` disable Python's cyclic garbage collector
for the call.  That is safe only because of the invariant the first tests
guard: planning creates no reference cycles.  Reference counting alone frees
everything the planner drops, so a collection during a plan would only
traverse live objects and free nothing.  Each of those tests runs one
planning entry point with the collector off and asserts that a full
collection afterwards finds no garbage.  A self-recursive nested function on
a planning path (a closure that calls itself is a cycle) fails them; use a
method or an explicit stack.

The last tests check that the pause restores the caller's collector state,
also when the call raises.
"""

from __future__ import annotations

import gc

import pytest

from repro.autodiff import build_training_graph
from repro.core import DiskPlanCache, HierarchicalConfig, PlannerConfig, SynthesisConfig
from repro.graph import ComputationGraph, GraphError
from repro.hap import hap, hap_pipeline
from repro.simulator import simulate_hierarchical
from repro.verify import verify_plan

from .conftest import build_mlp, build_tiny_transformer, make_cluster


def _no_cycles(call):
    """Run ``call`` with the collector off; assert it left no cyclic garbage."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = call()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    return result


def _hier_config(cache_dir: str, max_stages: int = 4) -> HierarchicalConfig:
    planner = PlannerConfig(
        max_rounds=1, synthesis=SynthesisConfig(search_strategy="beam", beam_width=4)
    )
    return HierarchicalConfig(
        planner=planner, plan_cache=DiskPlanCache(cache_dir), max_stages=max_stages
    )


def _copy(forward: ComputationGraph, prefix: str = "", loss: bool = True) -> ComputationGraph:
    """``forward`` with ``prefix`` on every node name, and its loss unless ``loss`` is off."""
    copy = ComputationGraph("copy")
    for node in forward:
        copy.add_node(
            prefix + node.name, node.op, tuple(prefix + i for i in node.inputs), dict(node.attrs)
        )
    for out in forward.outputs:
        copy.mark_output(prefix + out)
    if loss:
        copy.mark_loss(prefix + forward.loss)
    return copy


def test_hap_creates_no_cycles():
    forward = build_tiny_transformer()
    cluster = make_cluster()
    _no_cycles(lambda: hap(forward, cluster))


def test_hap_pipeline_with_disk_cache_creates_no_cycles(tmp_path):
    forward = build_mlp()
    cluster = make_cluster(("A100", "P100"), group=True)
    cache_dir = str(tmp_path)
    cold = _no_cycles(lambda: hap_pipeline(forward, cluster, _hier_config(cache_dir)))
    assert cold.reuse_stats["whole_plan_hit"] == 0

    hit = _no_cycles(lambda: hap_pipeline(forward, cluster, _hier_config(cache_dir)))
    assert hit.reuse_stats["whole_plan_hit"] == 1

    # A renamed request is served whole: the cached plan is renamed onto it.
    renamed = _copy(forward, prefix="r_")
    remapped = _no_cycles(lambda: hap_pipeline(renamed, cluster, _hier_config(cache_dir)))
    assert remapped.reuse_stats["whole_plan_hit"] == 1
    assert remapped.reuse_stats["subplans_planned"] == 0
    assert remapped.estimated_time == cold.estimated_time

    # Two machines give max_stages=2 the same grid as the default 4 but
    # another whole-plan key: the renamed request replans from chunk entries.
    replan = _no_cycles(
        lambda: hap_pipeline(renamed, cluster, _hier_config(cache_dir, max_stages=2))
    )
    assert replan.reuse_stats["whole_plan_hit"] == 0
    assert replan.reuse_stats["subplans_planned"] == 0
    assert replan.reuse_stats["cache_hits"] > 0
    assert replan.estimated_time == cold.estimated_time

    for plan in (remapped, replan):
        report = _no_cycles(lambda plan=plan: verify_plan(plan, renamed))
        assert report.ok, report.describe()
        _no_cycles(lambda plan=plan: simulate_hierarchical(plan, iterations=1, seed=0))


def _set_collector(enabled: bool) -> None:
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _raises(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_collector_state_is_restored(enabled):
    forward = build_mlp()
    flat = make_cluster(("A100", "P100"))
    grouped = make_cluster(("A100", "P100"), group=True)
    training = build_training_graph(forward).graph
    no_loss = _copy(forward, loss=False)
    config = HierarchicalConfig(
        planner=PlannerConfig(max_rounds=1, synthesis=SynthesisConfig(beam_width=4))
    )
    calls = [
        lambda: hap(forward, flat),
        lambda: hap_pipeline(forward, grouped, config),
        lambda: _raises(lambda: hap_pipeline(training, grouped, config), GraphError),
        lambda: _raises(lambda: hap(no_loss, flat), ValueError),
    ]
    was_enabled = gc.isenabled()
    try:
        for call in calls:
            _set_collector(enabled)
            call()
            assert gc.isenabled() is enabled
    finally:
        _set_collector(was_enabled)
