"""Plan-cache keys, backends and plan renaming (core/plancache.py).

The cache must never alias distinct planning problems: any change to graph
content, device compute/memory, network model, or configuration must change
the key.  Conversely a pure node renaming must *hit* — that is the entire
point of content addressing.
"""

import dataclasses
import multiprocessing
import os
import pickle
import sys
import types

import numpy as np
import pytest

from repro.autodiff import build_training_graph
from repro.cluster import ClusterSpec, Machine, NetworkSpec, device_type
from repro.core import (
    CachedPlan,
    DiskPlanCache,
    HAPPlanner,
    HierarchicalConfig,
    HierarchicalPlanner,
    InMemoryPlanCache,
    LoadBalancerConfig,
    PlannerConfig,
    SynthesisConfig,
    cluster_signature,
    plan_key,
    remap_plan,
)
from repro.graph import ComputationGraph, fingerprint_with_order, graph_fingerprint
from repro.runtime import SingleDeviceExecutor, run_hierarchical_plan
from repro.verify import verify_plan

from .conftest import (
    bindings_for,
    build_mlp,
    build_tiny_moe,
    build_tiny_transformer,
    make_cluster,
    rename_nodes,
)


def small_planner_config(**synthesis):
    return PlannerConfig(
        max_rounds=1,
        synthesis=SynthesisConfig(search_strategy="beam", beam_width=4, **synthesis),
    )


@pytest.fixture(scope="module")
def mlp_training():
    return build_training_graph(build_mlp()).graph


@pytest.fixture(scope="module")
def cluster():
    return make_cluster(("A100", "P100"))


#: Fields excluded from plan keys on purpose (see ``repro.core.plancache``).
NON_KEY_FIELDS = {"plan_cache", "verify_after_plan"}

CONFIG_TYPES = (SynthesisConfig, LoadBalancerConfig, PlannerConfig, HierarchicalConfig)

#: Every (config type, field name) pair that must feed the plan key.
KEYED_FIELDS = [
    (config_type, f.name)
    for config_type in CONFIG_TYPES
    for f in dataclasses.fields(config_type)
    if f.name not in NON_KEY_FIELDS
]


class TestKeySensitivity:
    def test_stable_for_equal_ingredients(self, mlp_training, cluster):
        fp = graph_fingerprint(mlp_training)
        assert plan_key(fp, cluster, small_planner_config()) == plan_key(
            fp, cluster, small_planner_config()
        )

    def test_sensitive_to_graph_content(self, mlp_training, cluster):
        other = build_training_graph(build_mlp(batch=64)).graph
        config = small_planner_config()
        assert plan_key(graph_fingerprint(mlp_training), cluster, config) != plan_key(
            graph_fingerprint(other), cluster, config
        )

    def test_sensitive_to_device_compute(self, mlp_training):
        fp = graph_fingerprint(mlp_training)
        config = small_planner_config()
        assert plan_key(fp, make_cluster(("A100", "P100")), config) != plan_key(
            fp, make_cluster(("A100", "A100")), config
        )

    def test_sensitive_to_network_bandwidth(self, mlp_training):
        fp = graph_fingerprint(mlp_training)
        config = small_planner_config()
        slow = make_cluster(("A100", "P100"), network=NetworkSpec(bandwidth=1e9))
        fast = make_cluster(("A100", "P100"), network=NetworkSpec(bandwidth=100e9))
        assert plan_key(fp, slow, config) != plan_key(fp, fast, config)

    def test_sensitive_to_config(self, mlp_training, cluster):
        fp = graph_fingerprint(mlp_training)
        assert plan_key(fp, cluster, small_planner_config()) != plan_key(
            fp, cluster, small_planner_config(enable_sfb=False)
        )
        assert plan_key(fp, cluster, small_planner_config()) != plan_key(
            fp, cluster, PlannerConfig(max_rounds=2, synthesis=SynthesisConfig(beam_width=4))
        )

    def test_insensitive_to_cluster_name(self, mlp_training):
        a = make_cluster(("A100", "P100"))
        b = ClusterSpec(
            a.machines, network=a.network, group_by_machine=a.group_by_machine, name="other"
        )
        assert cluster_signature(a) == cluster_signature(b)

    def test_sensitive_to_memory_and_overlap(self, mlp_training):
        a = make_cluster(("A100", "P100"))
        b = ClusterSpec(
            a.machines,
            network=a.network,
            group_by_machine=a.group_by_machine,
            memory_reserve_fraction=0.1,
        )
        assert cluster_signature(a) != cluster_signature(b)

    def test_plan_cache_field_never_keys(self, mlp_training, cluster):
        fp = graph_fingerprint(mlp_training)
        with_cache = HierarchicalConfig(
            planner=small_planner_config(), plan_cache=InMemoryPlanCache()
        )
        without = HierarchicalConfig(planner=small_planner_config())
        assert plan_key(fp, cluster, with_cache) == plan_key(fp, cluster, without)

    def test_verify_flag_never_keys(self, mlp_training, cluster):
        fp = graph_fingerprint(mlp_training)
        assert plan_key(fp, cluster, SynthesisConfig(verify_after_plan=True)) == plan_key(
            fp, cluster, SynthesisConfig(verify_after_plan=False)
        )

    @pytest.mark.parametrize(
        "config_type,field_name", KEYED_FIELDS, ids=[f"{t.__name__}.{n}" for t, n in KEYED_FIELDS]
    )
    def test_every_other_field_keys(self, mlp_training, cluster, config_type, field_name):
        """A field that does not change the key cannot change the plan either,
        so it does not belong in a planner configuration."""
        fp = graph_fingerprint(mlp_training)
        base = config_type()
        changed = dataclasses.replace(base, **{field_name: _other_value(base, field_name)})
        assert plan_key(fp, cluster, changed) != plan_key(fp, cluster, base)

    def test_every_config_has_keyed_fields(self):
        assert {t for t, _ in KEYED_FIELDS} == set(CONFIG_TYPES)


#: A valid non-default value for every config field the generic rule in
#: :func:`_other_value` (flip a bool, increment a number) cannot derive.
OTHER_VALUES = {
    "search_strategy": "astar",
    "schedules": ("1f1b",),
    "recompute": "never",
    "intra_group_network": NetworkSpec(bandwidth=1e9),
    "synthesis": SynthesisConfig(enable_sfb=False),
    "load_balancer": LoadBalancerConfig(respect_memory=True),
    "planner": PlannerConfig(max_rounds=2),
}


def _other_value(config, name):
    if name in OTHER_VALUES:
        return OTHER_VALUES[name]
    value = getattr(config, name)
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    raise AssertionError(f"no other value for {type(config).__name__}.{name}; add one")


class TestBackends:
    def test_in_memory_roundtrip(self):
        cache = InMemoryPlanCache()
        assert cache.get("k") is None
        cache.put(CachedPlan(key="k", node_names=["a"], plan="payload"))
        entry = cache.get("k")
        assert entry is not None and entry.plan == "payload"
        assert cache.hits == 1 and cache.misses == 1
        assert "k" in cache and len(cache) == 1
        cache.clear()
        assert "k" not in cache

    def test_disk_persistence(self, tmp_path):
        first = DiskPlanCache(str(tmp_path))
        first.put(CachedPlan(key="k", node_names=["a"], plan={"x": 1}))
        # A fresh instance (fresh process, conceptually) reads it back.
        second = DiskPlanCache(str(tmp_path))
        entry = second.get("k")
        assert entry is not None and entry.plan == {"x": 1}

    def test_disk_corrupt_entry_is_a_miss(self, tmp_path):
        cache = DiskPlanCache(str(tmp_path))
        (tmp_path / "bad.plan").write_bytes(b"not a pickle")
        assert cache.get("bad") is None

    @pytest.mark.parametrize("damage", ["truncated", "missing-module"])
    def test_disk_unpicklable_entry_is_a_miss(self, tmp_path, damage):
        key = "k" * 64
        if damage == "truncated":
            data = pickle.dumps(CachedPlan(key=key, node_names=["a"], plan={"x": 1}))[:-5]
        else:
            data = _pickle_from_removed_module(key)
        (tmp_path / f"{key}.plan").write_bytes(data)
        cache = DiskPlanCache(str(tmp_path))
        assert cache.get(key) is None
        assert cache.misses == 1 and cache.hits == 0
        # The next put re-writes the entry.
        cache.put(CachedPlan(key=key, node_names=[], plan="fresh"))
        assert DiskPlanCache(str(tmp_path)).get(key).plan == "fresh"

    def test_disk_key_mismatch_is_a_miss(self, tmp_path):
        cache = DiskPlanCache(str(tmp_path))
        (tmp_path / "stolen.plan").write_bytes(
            pickle.dumps(CachedPlan(key="original", node_names=[], plan=1))
        )
        assert cache.get("stolen") is None


def _pickle_from_removed_module(key: str) -> bytes:
    """A pickled entry whose plan's class lives in a module that is gone."""
    module = types.ModuleType("repro_removed_plan_module")

    class Gone:
        pass

    Gone.__module__ = module.__name__
    Gone.__qualname__ = "Gone"
    module.Gone = Gone
    sys.modules[module.__name__] = module
    try:
        return pickle.dumps(CachedPlan(key=key, node_names=[], plan=Gone()))
    finally:
        del sys.modules[module.__name__]


def _hammer_cache(directory: str, key: str, worker_id: int, iterations: int) -> None:
    """Write and read one key as fast as possible; exit non-zero on any tear."""
    cache = DiskPlanCache(directory)
    for i in range(iterations):
        cache.put(
            CachedPlan(key=key, node_names=[f"n{worker_id}"], plan=["payload", worker_id, i])
        )
        # Bypass the in-memory layer: read the raced file like another process.
        entry = DiskPlanCache(directory).get(key)
        if entry is None:
            continue  # a racing replace may briefly leave no file visible
        if entry.key != key or entry.plan[0] != "payload":
            sys.exit(1)  # torn or aliased read
    sys.exit(0)


class TestDiskCacheConcurrency:
    """One cache directory shared by concurrent processes (module docstring)."""

    def test_same_key_raced_writers_never_tear(self, tmp_path):
        directory = str(tmp_path)
        key = "a" * 64
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_hammer_cache, args=(directory, key, w, 25))
            for w in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        # Last writer wins: the published entry is one writer's complete write.
        final = DiskPlanCache(directory).get(key)
        assert final is not None and final.key == key
        assert final.plan[0] == "payload"
        # No temp-file litter beyond the published entry.
        leftovers = [f for f in os.listdir(directory) if f.endswith(".tmp")]
        assert leftovers == []

    def test_corrupt_entry_is_a_miss_and_rewritten(self, tmp_path):
        cache = DiskPlanCache(str(tmp_path))
        key = "b" * 64
        cache.put(CachedPlan(key=key, node_names=[], plan=["payload"]))
        with open(cache._path(key), "wb") as fh:
            fh.write(pickle.dumps(["not a CachedPlan"])[:-3])  # truncated pickle
        assert DiskPlanCache(str(tmp_path)).get(key) is None
        DiskPlanCache(str(tmp_path)).put(CachedPlan(key=key, node_names=[], plan=["payload2"]))
        assert DiskPlanCache(str(tmp_path)).get(key).plan == ["payload2"]


class TestRemapPlan:
    def test_remap_onto_renamed_graph(self, mlp_training, cluster):
        plan = HAPPlanner(mlp_training, cluster, small_planner_config()).plan()
        _, order = fingerprint_with_order(mlp_training)

        renamed = rename_nodes(mlp_training)
        assert graph_fingerprint(renamed) == graph_fingerprint(mlp_training)

        mapped = remap_plan(plan, order, renamed)
        assert mapped.program.graph is renamed
        assert mapped.estimated_time.total == plan.estimated_time.total
        assert mapped.ratios == plan.ratios
        assert len(mapped.program.instructions) == len(plan.program.instructions)
        for orig, new in zip(plan.program.instructions, mapped.program.instructions):
            assert new.node in renamed
            if not orig.is_communication:
                assert new.node == "r_" + orig.node
                assert new.op == orig.op
                assert [p.state for p in new.inputs] == [p.state for p in orig.inputs]
            else:
                assert new.kind == orig.kind
                assert new.input.state == orig.input.state

    def test_remap_identity_is_free(self, mlp_training, cluster):
        plan = HAPPlanner(mlp_training, cluster, small_planner_config()).plan()
        _, order = fingerprint_with_order(mlp_training)
        assert remap_plan(plan, order, mlp_training) is plan


class TestHierarchicalIntegration:
    def test_whole_plan_warm_hit(self, cluster):
        forward = build_mlp()
        cache = InMemoryPlanCache()
        config = HierarchicalConfig(
            planner=small_planner_config(), plan_cache=cache, max_stages=2
        )
        cold = HierarchicalPlanner(forward, cluster, config).plan()
        assert cold.reuse_stats["whole_plan_hit"] == 0
        assert cold.reuse_stats["subplans_planned"] > 0
        warm = HierarchicalPlanner(forward, cluster, config).plan()
        assert warm.reuse_stats["whole_plan_hit"] == 1
        assert warm.estimated_time == cold.estimated_time
        assert warm.schedule_name == cold.schedule_name
        assert warm.num_stages == cold.num_stages
        # The cached entry keeps its own (cold) stats: hits never clobber it.
        assert cold.reuse_stats["whole_plan_hit"] == 0

    def test_renamed_forward_is_a_whole_hit(self, cluster):
        forward = build_mlp()
        renamed = rename_nodes(forward)
        config = HierarchicalConfig(
            planner=small_planner_config(), plan_cache=InMemoryPlanCache(), max_stages=2
        )
        HierarchicalPlanner(forward, cluster, config).plan()
        warm = HierarchicalPlanner(renamed, cluster, config).plan()
        # Node names are not part of a plan: the whole entry is renamed onto
        # the request instead of being replanned from chunk entries.
        assert warm.reuse_stats["whole_plan_hit"] == 1
        assert warm.reuse_stats["subplans_planned"] == 0
        cold = HierarchicalPlanner(
            renamed, cluster, dataclasses.replace(config, plan_cache=None)
        ).plan()
        _assert_same_plan(warm, cold)
        report = verify_plan(warm, renamed)
        assert report.ok, report.describe()
        for chunk in warm.chunk_sequence():
            assert chunk.program.graph is chunk.info.graph
            assert set(chunk.info.forward_nodes) <= set(renamed.node_names)

    def test_renamed_forward_falls_back_to_chunk_cache(self, cluster):
        """A renamed request that misses the whole-plan key takes every chunk
        plan from the chunk entries: ``max_stages`` keys the whole plan,
        while chunk keys use only the flat planner's configuration."""
        forward = build_mlp()
        renamed = rename_nodes(forward)
        config = HierarchicalConfig(
            planner=small_planner_config(), plan_cache=InMemoryPlanCache(), max_stages=2
        )
        HierarchicalPlanner(forward, cluster, config).plan()
        one_stage = dataclasses.replace(config, max_stages=1)
        warm = HierarchicalPlanner(renamed, cluster, one_stage).plan()
        assert warm.reuse_stats["whole_plan_hit"] == 0
        assert warm.reuse_stats["subplans_planned"] == 0
        assert warm.reuse_stats["cache_hits"] > 0
        cold = HierarchicalPlanner(
            renamed, cluster, dataclasses.replace(one_stage, plan_cache=None)
        ).plan()
        assert warm.estimated_time == cold.estimated_time

    def test_renamed_model_hits_disk_chunk_entries(self, tmp_path):
        """A renamed model planned over the full grid of a two-machine
        cluster takes every chunk from a disk cache primed by the original.
        ``max_stages=2`` evaluates the same grid as the default 4 on two
        machines, but keys a different whole plan."""
        forward = build_mlp()
        hetero = make_cluster(("A100", "P100"), group=True)
        config = HierarchicalConfig(planner=small_planner_config())
        cache_dir = str(tmp_path)
        HierarchicalPlanner(
            forward, hetero, dataclasses.replace(config, plan_cache=DiskPlanCache(cache_dir))
        ).plan()
        renamed = rename_nodes(forward)
        two_stages = dataclasses.replace(config, max_stages=2)
        warm = HierarchicalPlanner(
            renamed, hetero, dataclasses.replace(two_stages, plan_cache=DiskPlanCache(cache_dir))
        ).plan()
        cold = HierarchicalPlanner(renamed, hetero, two_stages).plan()
        assert warm.reuse_stats["whole_plan_hit"] == 0
        assert warm.reuse_stats["subplans_planned"] == 0
        assert warm.reuse_stats["cache_hits"] > 0
        _assert_same_plan(warm, cold)

    def test_renamed_model_hits_disk_whole_entry(self, tmp_path):
        forward = build_mlp()
        hetero = make_cluster(("A100", "P100"), group=True)
        config = HierarchicalConfig(planner=small_planner_config())
        cache_dir = str(tmp_path)
        HierarchicalPlanner(
            forward, hetero, dataclasses.replace(config, plan_cache=DiskPlanCache(cache_dir))
        ).plan()
        renamed = rename_nodes(forward)
        warm = HierarchicalPlanner(
            renamed, hetero, dataclasses.replace(config, plan_cache=DiskPlanCache(cache_dir))
        ).plan()
        cold = HierarchicalPlanner(renamed, hetero, config).plan()
        assert warm.reuse_stats["whole_plan_hit"] == 1
        assert warm.reuse_stats["subplans_planned"] == 0
        _assert_same_plan(warm, cold)

    @pytest.mark.parametrize(
        "builder,schedules,rtol",
        [
            (build_mlp, None, 2e-4),
            (build_tiny_transformer, None, 2e-4),
            (build_tiny_transformer, ["interleaved-1f1b"], 2e-4),
            (build_tiny_moe, None, 1e-3),
        ],
        ids=["mlp", "transformer", "transformer-interleaved", "moe"],
    )
    def test_renamed_whole_hit_matches_single_device_training(self, builder, schedules, rtol):
        """The renamed chunk graphs, boundaries and gradient seeds of a
        remapped pipeline plan execute to the single-device numerics."""
        forward = builder()
        renamed = rename_nodes(forward)
        config = HierarchicalConfig(
            planner=small_planner_config(),
            schedules=schedules,
            intra_group_network=NetworkSpec(bandwidth=100e9 / 8),
            max_stages=2,
            plan_cache=InMemoryPlanCache(),
        )
        HierarchicalPlanner(forward, _two_group_cluster(), config).plan()
        plan = HierarchicalPlanner(renamed, _two_group_cluster(), config).plan()
        assert plan.reuse_stats["whole_plan_hit"] == 1
        assert plan.num_stages == 2  # real boundaries and gradient seeds
        training = build_training_graph(renamed)
        bindings = bindings_for(training.graph, seed=0)
        reference = SingleDeviceExecutor(training.graph).run(bindings)
        result = run_hierarchical_plan(plan, bindings)
        assert result.loss == pytest.approx(float(reference[training.loss]), rel=rtol, abs=1e-4)
        for param, update_node in training.updates.items():
            np.testing.assert_allclose(
                result.updated_parameters[param],
                reference[update_node],
                rtol=rtol,
                atol=1e-4,
                err_msg=f"parameter {param} diverged",
            )


def _two_group_cluster() -> ClusterSpec:
    """Two 4-GPU machine groups on the slow default network: pipelining wins."""
    machines = [
        Machine("v1", device_type("V100"), num_gpus=4),
        Machine("p1", device_type("P100"), num_gpus=4),
    ]
    return ClusterSpec(machines, network=NetworkSpec(), group_by_machine=True)


def _assert_same_plan(warm, cold) -> None:
    """``warm`` is ``cold`` up to the reuse line of ``describe()``."""
    assert warm.describe().splitlines()[:-1] == cold.describe().splitlines()[:-1]
    assert warm.estimated_time == cold.estimated_time
    assert warm.candidate_times == cold.candidate_times
    assert warm.schedule_candidate_times == cold.schedule_candidate_times
