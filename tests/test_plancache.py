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
    CACHE_VERSION,
    CachedPlan,
    DiskPlanCache,
    HAPPlanner,
    HierarchicalConfig,
    HierarchicalPlanner,
    InMemoryPlanCache,
    SynthesisConfig,
    cluster_signature,
    plan_key,
    remap_plan,
)
from repro.graph import (
    ComputationGraph,
    DType,
    GraphBuilder,
    fingerprint_with_order,
    graph_fingerprint,
)
from repro.hap import hap_pipeline
from repro.models import MODEL_NAMES, build_tiny_model
from repro.runtime import SingleDeviceExecutor, run_hierarchical_plan
from repro.simulator import simulate_hierarchical
from repro.verify import verify_plan, verify_program
from repro.verify.base import Diagnostic, PlanVerificationError, Severity

from .conftest import (
    bindings_for,
    build_mlp,
    build_tiny_moe,
    build_tiny_transformer,
    make_cluster,
    read_cache_entry,
    rename_nodes,
    seal,
)


def small_planner_config(**synthesis):
    return SynthesisConfig(beam_width=4, **synthesis)


@pytest.fixture(scope="module")
def mlp_training():
    return build_training_graph(build_mlp()).graph


@pytest.fixture(scope="module")
def cluster():
    return make_cluster(("A100", "P100"))


#: Fields excluded from plan keys on purpose (see ``repro.core.plancache``).
NON_KEY_FIELDS = {"plan_cache", "verify_after_plan"}

CONFIG_TYPES = (SynthesisConfig, HierarchicalConfig)

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
            synthesis=small_planner_config(), plan_cache=InMemoryPlanCache()
        )
        without = HierarchicalConfig(synthesis=small_planner_config())
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
    "intra_group_network": NetworkSpec(bandwidth=1e9),
    "synthesis": SynthesisConfig(enable_sfb=False),
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

    def test_disk_entry_is_a_checksummed_pickle(self, tmp_path):
        cache = DiskPlanCache(str(tmp_path))
        entry = CachedPlan(key="k", node_names=["a"], plan={"x": 1})
        cache.put(entry)
        assert read_cache_entry(tmp_path / "k.plan") == entry
        assert cache.get("absent") is None  # no file: a miss, not a reject
        assert (cache.misses, cache.rejects) == (1, 0)

    def test_disk_corrupt_entry_is_a_miss(self, tmp_path):
        cache = DiskPlanCache(str(tmp_path))
        (tmp_path / "bad.plan").write_bytes(b"not a pickle")
        assert cache.get("bad") is None
        assert cache.rejects == 1 and "checksum" in cache.last_reject

    @pytest.mark.parametrize("damage", ["truncated", "missing-module"])
    def test_disk_unpicklable_entry_is_a_miss(self, tmp_path, damage):
        key = "k" * 64
        if damage == "truncated":
            data = pickle.dumps(CachedPlan(key=key, node_names=["a"], plan={"x": 1}))[:-5]
        else:
            data = _pickle_from_removed_module(key)
        # Sealed: the digest matches, so unpickling is what fails.
        (tmp_path / f"{key}.plan").write_bytes(seal(data))
        cache = DiskPlanCache(str(tmp_path))
        assert cache.get(key) is None
        assert cache.misses == 1 and cache.hits == 0
        assert cache.rejects == 1 and "unpickle" in cache.last_reject
        # The next put re-writes the entry.
        cache.put(CachedPlan(key=key, node_names=[], plan="fresh"))
        assert DiskPlanCache(str(tmp_path)).get(key).plan == "fresh"

    def test_disk_key_mismatch_is_a_miss(self, tmp_path):
        cache = DiskPlanCache(str(tmp_path))
        (tmp_path / "stolen.plan").write_bytes(
            seal(pickle.dumps(CachedPlan(key="original", node_names=[], plan=1)))
        )
        assert cache.get("stolen") is None
        assert cache.rejects == 1 and "another key" in cache.last_reject


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


def _rebuilt(graph: ComputationGraph, order=None, attrs=None) -> ComputationGraph:
    """A copy of ``graph`` with its nodes added in ``order`` (default: its
    own) and ``attrs`` overriding the attributes of the nodes it names."""
    copy = ComputationGraph(graph.name)
    for name in order or graph.node_names:
        node = graph[name]
        copy.add_node(name, node.op, node.inputs, (attrs or {}).get(name, node.attrs))
    for out in graph.outputs:
        copy.mark_output(out)
    if graph.loss is not None:
        copy.mark_loss(graph.loss)
    return copy


class TestRemapPlan:
    def test_remap_onto_renamed_graph(self, mlp_training, cluster):
        plan = HAPPlanner(mlp_training, cluster, small_planner_config()).plan()
        renamed = rename_nodes(mlp_training)
        assert graph_fingerprint(renamed) == graph_fingerprint(mlp_training)

        mapped = remap_plan(plan, renamed)
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
        assert remap_plan(plan, plan.program.graph) is plan

    def test_remap_rejects_a_graph_of_another_length(self, mlp_training, cluster):
        plan = HAPPlanner(mlp_training, cluster, small_planner_config()).plan()
        longer = rename_nodes(mlp_training)
        longer.add_node("extra", "relu", (longer.node_names[-1],))
        with pytest.raises(ValueError, match="cannot remap"):
            remap_plan(plan, longer)

    @pytest.mark.parametrize("damage", ["attrs", "order"])
    def test_remap_rejects_a_graph_that_does_not_pair(self, mlp_training, cluster, damage):
        """The stored and the target graph are paired by position, so a node
        whose content differs, or two nodes added the other way round (an
        isomorphic graph built in another order), raise naming a stored
        node."""
        plan = HAPPlanner(mlp_training, cluster, small_planner_config()).plan()
        names = mlp_training.node_names
        if damage == "attrs":
            name = names[-1]
            target = _rebuilt(mlp_training, attrs={name: {**mlp_training[name].attrs, "lr": 0.5}})
        else:
            # The first two adjacent independent nodes of different ops.
            i = next(
                i
                for i, (a, b) in enumerate(zip(names, names[1:]))
                if a not in mlp_training[b].inputs and mlp_training[a].op != mlp_training[b].op
            )
            swapped = names[:i] + [names[i + 1], names[i]] + names[i + 2 :]
            target = _rebuilt(mlp_training, order=swapped)
            name = names[i]
            assert graph_fingerprint(target) == graph_fingerprint(mlp_training)
        with pytest.raises(ValueError, match=f"node {name!r} does not pair"):
            remap_plan(plan, target)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_remap_onto_renamed_registry_model(self, name, cluster):
        forward = build_tiny_model(name)
        training = build_training_graph(forward).graph
        renamed = build_training_graph(rename_nodes(forward)).graph
        plan = HAPPlanner(training, cluster, small_planner_config()).plan()
        mapped = remap_plan(plan, renamed)
        assert mapped.program.graph is renamed
        assert mapped.estimated_time == plan.estimated_time
        assert all(i.node in renamed for i in mapped.program.instructions)
        report = verify_program(mapped.program, cluster, mapped.flat_ratios)
        assert report.ok, report.describe()


def _record_checks(monkeypatch, fail_structural: bool = False) -> list:
    """Record every ``verify_plan`` call the planner makes, by kind; with
    ``fail_structural`` a structural-only check reports an injected error."""
    import repro.verify.plan as plan_verifier

    events = []
    verify = plan_verifier.verify_plan

    def recording_check(plan, forward, check_cost=True):
        events.append("full check" if check_cost else "structural check")
        report = verify(plan, forward, check_cost=check_cost)
        if fail_structural and not check_cost:
            report.diagnostics.append(Diagnostic("L001", Severity.ERROR, "injected"))
        return report

    monkeypatch.setattr(plan_verifier, "verify_plan", recording_check)
    return events


class _RecordingCache(InMemoryPlanCache):
    """An in-memory cache that records each ``put`` in ``events``."""

    def __init__(self, events: list) -> None:
        super().__init__()
        self.events = events

    def put(self, entry):
        self.events.append("put")
        super().put(entry)


class TestHierarchicalIntegration:
    def test_whole_plan_warm_hit(self, cluster):
        forward = build_mlp()
        cache = InMemoryPlanCache()
        config = HierarchicalConfig(
            synthesis=small_planner_config(), plan_cache=cache, max_stages=2
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

    def test_plan_failing_verification_is_not_cached(self, cluster, monkeypatch):
        """With ``verify_after_plan`` on, a plan whose full check fails
        raises and is not stored.  A warm hit under the stored names is not
        re-verified, so a stored one would be served on the next request."""
        import repro.verify.plan as plan_verifier

        structural = plan_verifier.verify_plan

        def failing_full_check(plan, forward, check_cost=True):
            report = structural(plan, forward, check_cost=check_cost)
            if check_cost:
                report.diagnostics.append(Diagnostic("L001", Severity.ERROR, "injected"))
            return report

        monkeypatch.setattr(plan_verifier, "verify_plan", failing_full_check)
        cache = InMemoryPlanCache()
        config = HierarchicalConfig(
            synthesis=small_planner_config(verify_after_plan=True),
            plan_cache=cache,
            max_stages=2,
        )
        with pytest.raises(PlanVerificationError):
            HierarchicalPlanner(build_mlp(), cluster, config).plan()
        assert len(cache) == 0

    def test_plan_is_fully_checked_before_it_is_cached(self, cluster, monkeypatch):
        """With ``verify_after_plan`` on, the full check runs before the
        store (and stands in for the structural one), and a plan that passes
        it is stored and served warm, under its own or other node names,
        without another check."""
        events = _record_checks(monkeypatch)
        cache = _RecordingCache(events)
        config = HierarchicalConfig(
            synthesis=small_planner_config(verify_after_plan=True),
            plan_cache=cache,
            max_stages=2,
        )
        cold = HierarchicalPlanner(build_mlp(), cluster, config).plan()
        assert events == ["full check", "put"]
        assert len(cache) == 1
        events.clear()
        warm = HierarchicalPlanner(build_mlp(), cluster, config).plan()
        assert warm.reuse_stats["whole_plan_hit"] == 1
        assert warm.estimated_time == cold.estimated_time
        assert events == []  # an identity hit is a lookup: no check, no put
        # A renamed hit is a checked rename of the verified plan: no check,
        # no put.
        renamed = HierarchicalPlanner(rename_nodes(build_mlp()), cluster, config).plan()
        assert renamed.reuse_stats["whole_plan_hit"] == 1
        assert events == []

    @pytest.mark.parametrize("sound", [True, False])
    def test_plan_is_structurally_checked_before_it_is_cached(
        self, cluster, monkeypatch, sound
    ):
        """With ``verify_after_plan`` off (set explicitly: the suite turns it
        on), the store still runs exactly one structural check first.  A plan
        that fails it is returned but not stored."""
        events = _record_checks(monkeypatch, fail_structural=not sound)
        cache = _RecordingCache(events)
        config = HierarchicalConfig(
            synthesis=small_planner_config(verify_after_plan=False),
            plan_cache=cache,
            max_stages=2,
        )
        plan = HierarchicalPlanner(build_mlp(), cluster, config).plan()
        assert plan.reuse_stats["subplans_planned"] > 0
        if sound:
            assert events == ["structural check", "put"]
            assert len(cache) == 1
        else:
            assert events == ["structural check"]
            assert len(cache) == 0

    def test_renamed_forward_is_a_whole_hit(self, cluster):
        forward = build_mlp()
        renamed = rename_nodes(forward)
        config = HierarchicalConfig(
            synthesis=small_planner_config(), plan_cache=InMemoryPlanCache(), max_stages=2
        )
        HierarchicalPlanner(forward, cluster, config).plan()
        warm = HierarchicalPlanner(renamed, cluster, config).plan()
        # Node names are not part of a plan: the whole entry is renamed onto
        # the request instead of being replanned.
        assert warm.reuse_stats["whole_plan_hit"] == 1
        assert warm.reuse_stats["subplans_planned"] == 0
        cold = HierarchicalPlanner(
            renamed, cluster, dataclasses.replace(config, plan_cache=None)
        ).plan()
        _assert_same_plan(warm, cold)
        report = verify_plan(warm, renamed)
        assert report.ok, report.describe()
        for chunk in warm.stages:
            assert chunk.program.graph is chunk.info.graph
            assert set(chunk.info.forward_nodes) <= set(renamed.node_names)

    def test_unpaired_chunk_graph_is_a_diagnosed_miss(self, cluster):
        """A stored chunk graph that does not pair with the one rebuilt for
        a renamed request is refused with a reason that names the chunk and
        the node, and the request replans."""
        forward = build_mlp()
        cache = InMemoryPlanCache()
        config = HierarchicalConfig(
            synthesis=small_planner_config(), plan_cache=cache, max_stages=2
        )
        cold = HierarchicalPlanner(forward, cluster, config).plan()
        (entry,) = cache._entries.values()
        stage = entry.plan.stages[-1]
        node = stage.plan.program.graph.nodes[-1]
        node.attrs = {**node.attrs, "damaged": True}
        warm = HierarchicalPlanner(rename_nodes(forward), cluster, config).plan()
        assert warm.reuse_stats["whole_plan_hit"] == 0
        assert warm.reuse_stats["cache_rejects"] == 1
        assert cache.rejects == 0  # the cache itself found nothing wrong
        assert f"chunk {stage.index}: cannot remap: node {node.name!r}" in cache.last_reject
        assert warm.estimated_time == cold.estimated_time

    def test_a_remap_bug_is_not_a_miss(self, cluster, monkeypatch):
        """Only the remap's ``ValueError`` (an entry that does not pair) is a
        miss; any other exception is a bug and propagates."""
        import repro.core.hierarchical as hierarchical

        config = HierarchicalConfig(
            synthesis=small_planner_config(), plan_cache=InMemoryPlanCache(), max_stages=2
        )
        HierarchicalPlanner(build_mlp(), cluster, config).plan()

        def broken_remap(plan, target):
            raise TypeError("a bug")

        monkeypatch.setattr(hierarchical, "remap_plan", broken_remap)
        with pytest.raises(TypeError, match="a bug"):
            HierarchicalPlanner(rename_nodes(build_mlp()), cluster, config).plan()

    def test_cold_fill_writes_one_whole_plan_entry(self, tmp_path):
        """The cache holds whole plans only: a cold run reads one key (the
        whole plan, a miss) and writes one entry, however many chunks it
        plans."""
        cache = DiskPlanCache(str(tmp_path))
        config = HierarchicalConfig(synthesis=small_planner_config(), plan_cache=cache)
        plan = hap_pipeline(build_mlp(), make_cluster(("A100", "P100"), group=True), config)
        assert plan.reuse_stats["subplans_planned"] > 1
        assert (cache.hits, cache.misses) == (0, 1)
        (path,) = tmp_path.glob("*.plan")
        entry = read_cache_entry(path)
        assert entry.node_names == fingerprint_with_order(build_mlp())[1]
        assert entry.plan.num_stages == plan.num_stages

    def test_disk_whole_plan_hit_round_trips(self, tmp_path):
        """A whole plan read back from disk has the current layout (no
        ``partition``: a stage's machine group is its ``subcluster``; no
        ``synthesis``: a chunk plan stores its program once; no stored
        ``fits_memory``: the verdict is derived; no ``content_key``: chunks
        are not deduped; no ``round_index``: a chunk plan has one round; no
        ``chunk_orders``: chunk graphs are paired by position) and simulates
        to the same total as the plan that was stored."""
        assert CACHE_VERSION == 22
        forward = build_mlp()
        cluster = _two_group_cluster()
        config = HierarchicalConfig(synthesis=small_planner_config(), max_stages=2)
        stored = HierarchicalPlanner(
            forward, cluster, dataclasses.replace(config, plan_cache=DiskPlanCache(str(tmp_path)))
        ).plan()
        hit = HierarchicalPlanner(
            forward, cluster, dataclasses.replace(config, plan_cache=DiskPlanCache(str(tmp_path)))
        ).plan()
        assert hit.reuse_stats["whole_plan_hit"] == 1
        assert hit.num_stages == stored.num_stages == 2
        (path,) = tmp_path.glob("*.plan")
        assert not hasattr(read_cache_entry(path), "chunk_orders")
        assert not hasattr(hit, "partition")
        assert not any(hasattr(s.plan, "synthesis") for s in hit.stages)
        assert "fits_memory" not in vars(hit)
        assert not any(hasattr(s, "content_key") for s in hit.stages)
        assert [len(s.plan.rounds) for s in hit.stages] == [1] * hit.num_stages
        assert not any(hasattr(s.plan.rounds[0], "round_index") for s in hit.stages)
        assert hit.fits_memory == stored.fits_memory
        assert [s.subcluster.name for s in hit.stages] == [
            s.subcluster.name for s in stored.stages
        ]
        assert (
            simulate_hierarchical(hit, seed=0).total
            == simulate_hierarchical(stored, seed=0).total
        )

    def test_other_max_stages_misses_and_replans(self, tmp_path):
        """A renamed model under another ``max_stages`` misses the whole
        plan of the primed cache and plans exactly as an uncached run of its
        own configuration.  ``max_stages=2`` evaluates the same grid as the
        default 4 on two machines, but keys a different whole plan."""
        forward = build_mlp()
        hetero = make_cluster(("A100", "P100"), group=True)
        config = HierarchicalConfig(synthesis=small_planner_config())
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
        assert warm.reuse_stats["subplans_planned"] == cold.reuse_stats["subplans_planned"] > 0
        _assert_same_plan(warm, cold)
        assert len(list(tmp_path.glob("*.plan"))) == 2  # one whole plan per config

    def test_reuse_stats_has_exactly_three_keys(self, cluster):
        keys = {"subplans_planned", "cache_rejects", "whole_plan_hit"}
        forward = build_mlp()
        config = HierarchicalConfig(
            synthesis=small_planner_config(), plan_cache=InMemoryPlanCache(), max_stages=2
        )
        planner = HierarchicalPlanner(forward, cluster, config)
        assert set(planner.reuse_stats) == keys
        cold = planner.plan()
        warm = HierarchicalPlanner(forward, cluster, config).plan()
        assert warm.reuse_stats["whole_plan_hit"] == 1
        for plan in (cold, warm):
            assert set(plan.reuse_stats) == keys
            assert "cache hit" not in plan.describe()

    def test_renamed_model_hits_disk_whole_entry(self, tmp_path):
        forward = build_mlp()
        hetero = make_cluster(("A100", "P100"), group=True)
        config = HierarchicalConfig(synthesis=small_planner_config())
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
        "builder,rtol",
        [
            (build_mlp, 2e-4),
            (build_tiny_transformer, 2e-4),
            (build_tiny_moe, 1e-3),
        ],
        ids=["mlp", "transformer", "moe"],
    )
    def test_renamed_whole_hit_matches_single_device_training(self, builder, rtol):
        """The renamed chunk graphs, boundaries and gradient seeds of a
        remapped pipeline plan execute to the single-device numerics."""
        forward = builder()
        renamed = rename_nodes(forward)
        config = HierarchicalConfig(
            synthesis=small_planner_config(),
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


def _twin_branch_forward(batch=16, features=32, hidden=64, classes=10):
    """An MLP whose first layer is two ancestor-identical twin branches (as
    in ``tests/test_canonical.py``): canonical orders tie-break them by
    insertion index."""
    b = GraphBuilder("twins")
    x = b.placeholder((batch, features), name="features")
    h = b.add(b.relu(b.linear(x, hidden)), b.relu(b.linear(x, hidden)))
    h = b.relu(b.linear(h, hidden))
    logits = b.linear(h, classes)
    labels = b.placeholder((batch,), dtype=DType.INT64, name="labels")
    b.loss(b.cross_entropy(logits, labels))
    return b.build()


class TestRenamedHitExactness:
    """A renamed whole-plan hit is exactly the plan a cache-free planner
    builds for the renamed graph: the checked positional rename neither
    loses nor invents anything, so it is served without re-verification."""

    @pytest.mark.parametrize("name", [*MODEL_NAMES, "twin_branches"])
    def test_renamed_hit_equals_a_fresh_plan(self, name):
        forward = _twin_branch_forward() if name == "twin_branches" else build_tiny_model(name)
        renamed = rename_nodes(forward)
        cluster = _two_group_cluster()
        config = HierarchicalConfig(
            synthesis=small_planner_config(),
            intra_group_network=NetworkSpec(bandwidth=100e9 / 8),
            max_stages=2,
        )
        cache = InMemoryPlanCache()
        cached = dataclasses.replace(config, plan_cache=cache)
        HierarchicalPlanner(forward, cluster, cached).plan()
        hit = HierarchicalPlanner(renamed, cluster, cached).plan()
        fresh = HierarchicalPlanner(renamed, cluster, config).plan()
        assert hit.reuse_stats["whole_plan_hit"] == 1
        assert cache.last_reject is None
        assert hit.num_stages == fresh.num_stages == 2  # boundaries are remapped too
        assert hit.cut.stages == fresh.cut.stages
        assert hit.cut.cut_refs == fresh.cut.cut_refs
        for h, f in zip(hit.stages, fresh.stages):
            assert h.program.graph is h.info.graph
            assert h.info.graph.node_names == f.info.graph.node_names
            assert h.program.instructions == f.program.instructions
            assert h.ratios == f.ratios
            assert h.plan.estimated_time == f.plan.estimated_time
        assert hit.estimated_time == fresh.estimated_time
        assert hit.schedule == fresh.schedule


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
