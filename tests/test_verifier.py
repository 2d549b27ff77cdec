"""Static analysis suite (src/repro/verify/).

Positive direction: every registry model's graph IR (forward, training, and
planner-cut chunk graphs) must check clean, and every hierarchically planned
program, plan and schedule must verify clean (and the ``verify_after_plan``
switch — on suite-wide via ``REPRO_VERIFY`` — means every *other* test's
plans are verified too).  Negative direction: every seeded corruption from the
mutation harness must be caught with its expected diagnostic code, every
performance lint must fire on its deliberately-bad fixture plan and stay
silent on a clean one, and a cache entry hand-corrupted on disk must be
rejected by the verify-on-hit path as a diagnosed miss instead of being
replayed.
"""

import copy
import dataclasses
import json
import pickle
import struct
from pathlib import Path

import pytest

from benchmarks.e2e import workloads
from repro.autodiff import build_training_graph
from repro.cluster import ClusterSpec, Machine, NetworkSpec, device_type
from repro.collectives.cost import CollectiveCostModel, CollectiveKind
from repro.core import (
    DiskPlanCache,
    HAPPlanner,
    HierarchicalConfig,
    HierarchicalPlanner,
    SynthesisConfig,
)
from repro.core.config import verify_default
from repro.core.instructions import CommInstruction
from repro.graph.graph import ComputationGraph
from repro.models.registry import MODEL_NAMES, build_tiny_model
from repro.verify import (
    PlanVerificationError,
    Severity,
    lint_plan,
    verify_graph,
    verify_plan,
    verify_program,
)
from repro.verify import cli as verify_cli
from repro.verify.base import Diagnostic, VerificationReport
from repro.verify.mutate import (
    GRAPH_MUTATIONS,
    PLAN_MUTATIONS,
    PROGRAM_MUTATIONS,
    duplicate_instruction,
)
from repro.verify.plan import verify_plan_structure

from .conftest import (
    ENTRY_DIGEST_BYTES,
    build_mlp,
    make_cluster,
    read_cache_entry,
    rename_nodes,
    write_cache_entry,
)


def small_planner():
    return SynthesisConfig(beam_width=8)


def two_group_cluster() -> ClusterSpec:
    """Two machine groups with the paper's slow inter-group network."""
    machines = [
        Machine("v1", device_type("V100"), num_gpus=4),
        Machine("p1", device_type("P100"), num_gpus=4),
    ]
    return ClusterSpec(machines, network=NetworkSpec(), group_by_machine=True)


def hier_config(**kwargs) -> HierarchicalConfig:
    kwargs.setdefault("synthesis", small_planner())
    kwargs.setdefault("intra_group_network", NetworkSpec(bandwidth=100e9 / 8))
    kwargs.setdefault("max_stages", 2)
    return HierarchicalConfig(**kwargs)


@pytest.fixture(scope="module")
def bert_forward():
    return build_tiny_model("bert_base")


@pytest.fixture(scope="module")
def bert_plan(bert_forward):
    """A two-stage pipeline plan over the tiny BERT (module-scoped: ~1s)."""
    plan = HierarchicalPlanner(bert_forward, two_group_cluster(), hier_config()).plan()
    assert plan.num_stages == 2  # the mutations below exercise real boundaries
    return plan


@pytest.fixture(scope="module")
def sharded_plan(bert_forward):
    """A two-stage plan whose chunks shard across 4 virtual devices each.

    Eight single-GPU machines grouped per-machine: chunk programs carry real
    collectives (all-gather, all-reduce), which the W006 lint and the
    dominated-collective fixtures need.
    """
    machines = [
        Machine(f"m{i}", device_type("V100"), num_gpus=1) for i in range(8)
    ]
    cluster = ClusterSpec(machines, network=NetworkSpec(), group_by_machine=True)
    plan = HierarchicalPlanner(bert_forward, cluster, hier_config()).plan()
    assert plan.num_stages == 2
    return plan


@pytest.fixture(scope="module")
def flat_plan():
    """A flat SPMD plan with collectives to mutate (MLP on 4 devices)."""
    from repro.autodiff import build_training_graph

    graph = build_training_graph(build_mlp()).graph
    return HAPPlanner(graph, make_cluster(), small_planner()).plan()


# ---------------------------------------------------------------------------
# positive runs: every registry model verifies clean
# ---------------------------------------------------------------------------

class TestPositive:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_registry_model_plan_verifies(self, name):
        forward = build_tiny_model(name)
        plan = HierarchicalPlanner(forward, two_group_cluster(), hier_config()).plan()
        report = verify_plan(plan, forward)
        assert report.ok, report.describe()
        # Both pass families actually ran.
        ran = set(report.passes_run)
        assert {"plan-partition", "plan-stash-peaks", "program-dataflow"} <= ran

    def test_flat_program_verifies(self, flat_plan):
        cluster = make_cluster()
        report = verify_program(flat_plan.program, cluster, flat_plan.flat_ratios)
        assert report.ok, report.describe()


# ---------------------------------------------------------------------------
# negative runs: every seeded mutation is caught with its expected code
# ---------------------------------------------------------------------------

class TestProgramMutations:
    @pytest.mark.parametrize("mutation", sorted(PROGRAM_MUTATIONS))
    def test_mutation_caught(self, flat_plan, mutation):
        mutated, expected = PROGRAM_MUTATIONS[mutation](flat_plan.program)
        report = verify_program(mutated, make_cluster(), flat_plan.flat_ratios)
        assert not report.ok, f"{mutation} went undiagnosed"
        assert expected in report.codes(), (
            f"{mutation}: expected {expected}, got {report.codes()}\n{report.describe()}"
        )

    def test_dropped_collective_also_breaks_cost_agreement(self, flat_plan):
        # P008 cross-checks cost on the *well-formed* positive path; on a
        # mutated program the structural passes own the diagnosis, and the
        # report must not be drowned in spurious crashes.
        mutated, expected = PROGRAM_MUTATIONS["drop_collective"](flat_plan.program)
        report = verify_program(mutated, make_cluster(), flat_plan.flat_ratios)
        assert expected in report.codes()
        assert not report.ok


class TestPlanMutations:
    @pytest.mark.parametrize("mutation", sorted(PLAN_MUTATIONS))
    def test_mutation_caught(self, bert_plan, bert_forward, mutation):
        mutated, expected = PLAN_MUTATIONS[mutation](bert_plan)
        report = verify_plan(mutated, bert_forward)
        assert not report.ok, f"{mutation} went undiagnosed"
        assert expected in report.codes(), (
            f"{mutation}: expected {expected}, got {report.codes()}\n{report.describe()}"
        )

    def test_corrupt_chunk_program_caught_at_plan_level(self, bert_plan, bert_forward):
        mutated = dataclasses.replace(bert_plan)
        mutated.stages = [dataclasses.replace(s) for s in bert_plan.stages]
        # A chunk on a one-machine group has no collectives, so corrupt the
        # dataflow instead: emulate one node twice.
        stage = mutated.stages[0]
        bad_program, expected = duplicate_instruction(stage.program)
        stage.plan = dataclasses.replace(stage.plan, program=bad_program)
        report = verify_plan(mutated, bert_forward)
        assert expected in report.codes(), report.describe()
        # The diagnostic is anchored to the owning stage.
        assert any(
            d.code == expected and d.location.startswith("stage 0")
            for d in report.errors
        ), report.describe()

    def test_unknown_schedule_name_is_s003(self, bert_plan, bert_forward):
        # A cache entry can name a schedule this planner no longer has.
        mutated = dataclasses.replace(
            bert_plan, schedule=dataclasses.replace(bert_plan.schedule, schedule="interleaved")
        )
        report = verify_plan(mutated, bert_forward)
        assert [d.code for d in report.errors] == ["S003"], report.describe()
        assert "'interleaved'" in report.errors[0].location
        assert "S003" not in verify_plan(bert_plan, bert_forward).codes()

    def test_infeasible_plan_is_not_an_error(self, bert_plan, bert_forward):
        # The memory verdict is derived, so an over-capacity plan reports
        # its infeasibility through ``fits_memory`` and verifies clean.
        mutated = copy.deepcopy(bert_plan)
        stage = mutated.stages[0]
        stage.replicated_param_bytes += int(max(stage.subcluster.device_memory()) * 10)
        assert not mutated.fits_memory
        assert verify_plan(mutated, bert_forward).ok


# ---------------------------------------------------------------------------
# verify_after_plan wiring
# ---------------------------------------------------------------------------

class TestVerifyAfterPlan:
    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "0")
        assert not verify_default()
        assert not HierarchicalConfig().synthesis.verify_after_plan
        monkeypatch.setenv("REPRO_VERIFY", "1")
        assert HierarchicalConfig().synthesis.verify_after_plan

    def test_suite_runs_with_verifier_on(self):
        # tests/conftest.py turns the switch on suite-wide: every plan built
        # by any test goes through the verifier (this is the positive corpus).
        assert SynthesisConfig().verify_after_plan

    def test_one_switch_gates_the_hierarchical_checks(self, bert_forward):
        # The hierarchical planner's forward-graph check follows the chunk
        # planners' switch: off, a corrupt forward graph is not checked.
        mutated, _ = GRAPH_MUTATIONS["dangle_input"](bert_forward)
        quiet = SynthesisConfig(beam_width=8, verify_after_plan=False)
        HierarchicalPlanner(mutated, two_group_cluster(), hier_config(synthesis=quiet))

    def test_error_carries_report(self):
        from repro.verify.base import Diagnostic, VerificationReport

        report = VerificationReport()
        report.add(Diagnostic("L003", Severity.ERROR, "boom", "stage 0"))
        err = PlanVerificationError(report)
        assert err.report is report
        assert "L003" in str(err)


# ---------------------------------------------------------------------------
# cache corruption: the checksum and the checked rename turn bad entries
# into diagnosed misses
# ---------------------------------------------------------------------------

class TestCacheCorruption:
    """A damaged disk entry is a diagnosed miss, and so is an entry whose
    stored chunk graph does not pair with a renamed request's; either way
    planning falls through to synthesis."""

    def _cold_fill(self, bert_forward, directory: str):
        return HierarchicalPlanner(
            bert_forward,
            two_group_cluster(),
            hier_config(plan_cache=DiskPlanCache(directory)),
        ).plan()

    def _damage_on_disk(self, directory: str, damage, *, reseal: bool) -> int:
        """Apply ``damage`` to every whole-plan entry of a DiskPlanCache
        directory (the cache holds no other entries)."""
        damaged = 0
        for path in Path(directory).glob("*.plan"):
            entry = read_cache_entry(path)
            damage(entry)
            write_cache_entry(path, entry, reseal=reseal)
            damaged += 1
        return damaged

    def _bump_send_bytes(self, entry) -> None:
        entry.plan.stages[0].send_bytes += 999

    def test_corrupt_entries_become_diagnosed_misses(self, bert_forward, tmp_path):
        directory = str(tmp_path / "plans")
        cold = self._cold_fill(bert_forward, directory)
        # Accidental damage: the payload changes under the old digest.
        assert self._damage_on_disk(directory, self._bump_send_bytes, reseal=False) == 1

        # Fresh cache instance: reads actually hit the corrupted files.
        cache = DiskPlanCache(directory)
        warm = HierarchicalPlanner(
            bert_forward, two_group_cluster(), hier_config(plan_cache=cache)
        ).plan()
        assert warm.reuse_stats["whole_plan_hit"] == 0
        assert warm.reuse_stats["cache_rejects"] == 1
        assert "checksum" in cache.last_reject
        assert warm.reuse_stats["subplans_planned"] > 0  # fell through to synthesis
        # The replanned result is clean and matches the cold plan.
        assert verify_plan(warm, bert_forward).ok
        assert warm.estimated_time == cold.estimated_time
        assert warm.schedule_name == cold.schedule_name
        # The replan rewrote the bad entry: the next request is a whole hit.
        again = HierarchicalPlanner(
            bert_forward,
            two_group_cluster(),
            hier_config(plan_cache=DiskPlanCache(directory)),
        ).plan()
        assert again.reuse_stats["whole_plan_hit"] == 1

    @pytest.mark.parametrize("request_names", ["identity", "renamed"])
    def test_flipped_byte_that_still_unpickles_is_rejected(
        self, bert_forward, tmp_path, request_names
    ):
        """One flipped byte inside the pickled estimate leaves a payload that
        unpickles cleanly; only the checksum can tell, for either request."""
        directory = str(tmp_path / "plans")
        cold = self._cold_fill(bert_forward, directory)
        (path,) = Path(directory).glob("*.plan")
        data = bytearray(path.read_bytes())
        estimate = b"G" + struct.pack(">d", cold.estimated_time)  # pickle BINFLOAT
        at = data.index(estimate, ENTRY_DIGEST_BYTES) + len(estimate) - 1
        data[at] ^= 0x01  # the lowest mantissa byte
        path.write_bytes(bytes(data))
        flipped = pickle.loads(bytes(data[ENTRY_DIGEST_BYTES:]))
        assert flipped.plan.estimated_time != cold.estimated_time

        forward = bert_forward if request_names == "identity" else rename_nodes(bert_forward)
        cache = DiskPlanCache(directory)
        warm = HierarchicalPlanner(
            forward, two_group_cluster(), hier_config(plan_cache=cache)
        ).plan()
        assert warm.reuse_stats["whole_plan_hit"] == 0
        assert warm.reuse_stats["cache_rejects"] == 1
        assert (cache.hits, cache.misses, cache.rejects) == (0, 1, 1)
        assert "checksum" in cache.last_reject
        assert warm.estimated_time == cold.estimated_time

    def _renamed_warm(self, bert_forward, directory: str):
        renamed = rename_nodes(bert_forward)
        cache = DiskPlanCache(directory)
        warm = HierarchicalPlanner(
            renamed, two_group_cluster(), hier_config(plan_cache=cache)
        ).plan()
        assert cache.rejects == 0  # the entry itself is intact
        assert warm.reuse_stats["whole_plan_hit"] == 0
        assert warm.reuse_stats["cache_rejects"] == 1
        assert warm.reuse_stats["subplans_planned"] > 0  # fell through to synthesis
        assert verify_plan(warm, renamed).ok
        return warm, cache

    @pytest.mark.parametrize("damage", ["shuffled", "truncated"])
    def test_bad_chunk_order_is_a_diagnosed_miss(self, bert_forward, tmp_path, damage):
        """A renamed request pairs each stored chunk graph with the one it
        rebuilds, node by node; a stored chunk graph whose node order is
        damaged is rejected with the chunk named, and the plan is
        synthesized afresh."""
        directory = str(tmp_path / "plans")
        cold = self._cold_fill(bert_forward, directory)
        last = cold.stages[-1].index

        def damage_order(entry):
            graph = entry.plan.stages[-1].plan.program.graph
            if damage == "shuffled":
                graph._order.reverse()
            else:
                del graph._nodes[graph._order.pop()]

        assert self._damage_on_disk(directory, damage_order, reseal=True) == 1
        warm, cache = self._renamed_warm(bert_forward, directory)
        assert f"chunk {last}: cannot remap" in cache.last_reject
        assert warm.estimated_time == cold.estimated_time
        assert warm.schedule_candidate_times == cold.schedule_candidate_times

    def test_renamed_hit_trusts_a_resealed_entry_as_an_identity_hit_does(
        self, bert_forward, tmp_path
    ):
        """An intact entry (its digest matches) whose plan miscounts a
        boundary's bytes is trusted by both kinds of hit: the stored plan
        was verified once before it was stored, and a renamed hit is its
        checked rename, not a new artifact.  Both requests serve the same
        plan, up to node names."""
        directory = str(tmp_path / "plans")
        self._cold_fill(bert_forward, directory)
        assert self._damage_on_disk(directory, self._bump_send_bytes, reseal=True) == 1
        served = []
        for forward in (bert_forward, rename_nodes(bert_forward)):
            cache = DiskPlanCache(directory)
            plan = HierarchicalPlanner(
                forward, two_group_cluster(), hier_config(plan_cache=cache)
            ).plan()
            assert plan.reuse_stats["whole_plan_hit"] == 1
            assert plan.reuse_stats["cache_rejects"] == 0
            served.append(plan)
        identity, renamed = served
        assert identity.stages[0].send_bytes == renamed.stages[0].send_bytes
        assert workloads.digest(identity) == workloads.digest(renamed)

    def test_intact_cache_still_hits(self, bert_forward, tmp_path):
        directory = str(tmp_path / "plans")
        self._cold_fill(bert_forward, directory)
        warm = HierarchicalPlanner(
            bert_forward,
            two_group_cluster(),
            hier_config(plan_cache=DiskPlanCache(directory)),
        ).plan()
        assert warm.reuse_stats["whole_plan_hit"] == 1
        assert warm.reuse_stats["cache_rejects"] == 0


# ---------------------------------------------------------------------------
# later-stage boundary audit (dependent_mask / instruction_phases)
# ---------------------------------------------------------------------------

class TestStageBoundaryAudit:
    """No chunk instruction references a tensor produced in a later stage.

    The dataflow pass (P001/P003) proves def-before-use *within* each chunk
    program; these tests additionally pin that every reference a chunk
    instruction touches exists in the chunk's own graph — i.e. activations
    from other stages enter only through placeholder seeds, never as dangling
    names — so ``Stage.dependent_mask()`` and ``instruction_phases()`` can
    never taint or classify against a tensor of a later stage.
    """

    def test_chunk_instructions_reference_only_chunk_tensors(self, bert_plan):
        for chunk in bert_plan.stages:
            names = set(chunk.info.graph.node_names)
            for instr in chunk.program.instructions:
                if isinstance(instr, CommInstruction):
                    refs = {instr.input.ref, instr.output.ref}
                else:
                    refs = {p.ref for p in instr.inputs} | {instr.output.ref, instr.node}
                assert refs <= names, (
                    f"stage {chunk.index}: {sorted(refs - names)} "
                    "not in the chunk graph"
                )

    def test_dependent_mask_and_phases_consistent_per_chunk(self, bert_plan):
        for chunk in bert_plan.stages:
            program = chunk.program
            phases = program.instruction_phases(chunk.info.forward_nodes)
            assert len(phases) == len(program.instructions)
            for stage in program.stages():
                mask = stage.dependent_mask()
                assert len(mask) == len(stage.comps)
                if stage.comm is None:
                    assert not any(mask)


# ---------------------------------------------------------------------------
# graph checker: G-code positives and seeded corruptions
# ---------------------------------------------------------------------------

class TestGraphChecker:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_registry_graphs_check_clean(self, name):
        forward = build_tiny_model(name)
        report = verify_graph(forward)
        assert report.ok and not report.warnings, report.describe()
        training = build_training_graph(forward, lr=0.1).graph
        report = verify_graph(training)
        assert report.ok and not report.warnings, report.describe()

    def test_all_chunk_graphs_check_clean(self, bert_plan, sharded_plan):
        for plan in (bert_plan, sharded_plan):
            for chunk in plan.stages:
                report = verify_graph(chunk.info.graph)
                assert report.ok and not report.warnings, (
                    f"stage {chunk.index}: {report.describe()}"
                )

    def test_batch_mixing_detected(self):
        # Shapes alone cannot see this: matmul([4,8],[8,3]) infers fine, but
        # the two placeholders carry different leading batch dimensions.
        g = ComputationGraph("mix")
        g.add_node("a", "placeholder", (), {"shape": (4, 8)})
        g.add_node("b", "placeholder", (), {"shape": (8, 3)})
        g.add_node("c", "matmul", ("a", "b"), {})
        g.mark_output("c")
        report = verify_graph(g)
        assert "G005" in report.codes(), report.describe()

    def test_roots_keep_boundary_consumers_alive(self):
        # A stage-graph-style node whose consumer lives in *another* stage is
        # dead until the stage graph marks it as an output, as stage graphs
        # mark their boundary refs.
        g = ComputationGraph("stagey")
        g.add_node("x", "placeholder", (), {"shape": (4, 8)})
        g.add_node("y", "relu", ("x",), {})
        assert "G004" in verify_graph(g).codes()
        g.mark_output("y")
        assert verify_graph(g).ok

    def test_flat_planner_rejects_corrupt_graph(self):
        graph = build_training_graph(build_mlp()).graph
        mutated, expected = GRAPH_MUTATIONS["corrupt_shape"](graph)
        with pytest.raises(PlanVerificationError) as err:
            HAPPlanner(mutated, make_cluster(), small_planner())
        assert expected in err.value.report.codes()

    def test_hierarchical_planner_rejects_corrupt_forward(self, bert_forward):
        mutated, expected = GRAPH_MUTATIONS["dangle_input"](bert_forward)
        with pytest.raises(PlanVerificationError) as err:
            HierarchicalPlanner(mutated, two_group_cluster(), hier_config())
        assert expected in err.value.report.codes()


class TestGraphMutations:
    @pytest.mark.parametrize("mutation", sorted(GRAPH_MUTATIONS))
    def test_mutation_caught(self, mutation):
        graph = build_training_graph(build_mlp()).graph
        assert verify_graph(graph).ok  # the corruption is the only defect
        mutated, expected = GRAPH_MUTATIONS[mutation](graph)
        report = verify_graph(mutated)
        assert not report.ok, f"{mutation} went undiagnosed"
        assert expected in report.codes(), (
            f"{mutation}: expected {expected}, got {report.codes()}\n{report.describe()}"
        )

    @pytest.mark.parametrize("mutation", sorted(GRAPH_MUTATIONS))
    def test_mutation_caught_on_bert_training_graph(self, bert_forward, mutation):
        graph = build_training_graph(bert_forward, lr=0.1).graph
        mutated, expected = GRAPH_MUTATIONS[mutation](graph)
        assert expected in verify_graph(mutated).codes()


# ---------------------------------------------------------------------------
# plan linter: every W code fires on its bad fixture, stays silent on clean
# ---------------------------------------------------------------------------

class TestLint:
    def test_clean_plans_produce_no_warnings(self, bert_plan, sharded_plan):
        # No vacuous lints: real planner output on both fixture clusters is
        # warning-free, so every warning in the tests below is provoked.
        for plan in (bert_plan, sharded_plan):
            report = lint_plan(plan)
            assert report.ok and not report.warnings, report.describe()

    def test_w001_comm_oversubscription(self, bert_plan):
        bad = copy.deepcopy(bert_plan)
        total = bad.schedule.total
        bad.schedule.comm_busy = [0.9 * total for _ in bad.schedule.comm_busy]
        report = lint_plan(bad)
        assert "W001" in report.codes(), report.describe()
        assert report.ok  # warnings never flip ok

    def test_w002_exposed_comm(self, bert_plan):
        bad = copy.deepcopy(bert_plan)
        bad.schedule.exposed_transfer = 0.5 * bad.schedule.total
        assert "W002" in lint_plan(bad).codes()
        clean = copy.deepcopy(bert_plan)
        clean.schedule.exposed_transfer = 0.1 * clean.schedule.total
        assert "W002" not in lint_plan(clean).codes()

    def test_w003_stage_imbalance(self, bert_plan):
        bad = copy.deepcopy(bert_plan)
        bad.schedule.stage_busy = [1.0, 2.0]
        assert "W003" in lint_plan(bad).codes()
        clean = copy.deepcopy(bert_plan)
        clean.schedule.stage_busy = [1.0, 1.2]
        assert "W003" not in lint_plan(clean).codes()

    def test_w004_memory_headroom(self, bert_plan, bert_forward):
        def at_utilization(fraction):
            """``bert_plan`` with stage 0's stash peak raised until its worst
            device holds ``fraction`` of its capacity."""
            plan = copy.deepcopy(bert_plan)
            stage = plan.stages[0]
            resident = stage.peak_device_memory(0.0)
            plan.schedule.peak_stash[0] = min(
                (fraction * cap - peak) / ratio
                for peak, cap, ratio in zip(
                    resident, stage.subcluster.device_memory(), stage.ratios
                )
            )
            assert plan.stage_memory_utilization[0] == pytest.approx(fraction)
            return plan

        bad = at_utilization(0.95)
        assert bad.fits_memory
        assert "L004" not in verify_plan_structure(bad, bert_forward).codes()
        assert "W004" in lint_plan(bad).codes()
        # An infeasible plan says so in its verdict; headroom is not its lint.
        over = at_utilization(1.05)
        assert not over.fits_memory
        assert "W004" not in lint_plan(over).codes()

    def test_w006_dominated_collective(self, sharded_plan):
        bad = copy.deepcopy(sharded_plan)
        for chunk in bad.stages:
            model = CollectiveCostModel(chunk.subcluster)
            instructions = chunk.program.instructions
            for idx, instr in enumerate(instructions):
                if not isinstance(instr, CommInstruction):
                    continue
                ref = instr.input.ref
                total_bytes = float(chunk.program.graph[ref].spec.size_bytes)
                best_kind, _ = model.best_all_gather(total_bytes, chunk.ratios)
                loser = (
                    CollectiveKind.ALL_GATHER_GROUPED
                    if best_kind is CollectiveKind.ALL_GATHER
                    else CollectiveKind.ALL_GATHER
                )
                instructions[idx] = dataclasses.replace(instr, kind=loser)
                report = lint_plan(bad)
                assert "W006" in report.codes(), report.describe()
                return
        pytest.fail("sharded_plan has no collective to flip")

    def test_verify_plan_leaves_linting_to_lint_plan(self, bert_plan, bert_forward):
        bad = copy.deepcopy(bert_plan)
        bad.schedule.exposed_transfer = 0.5 * bad.schedule.total
        report = verify_plan(bad, bert_forward)
        assert report.ok, report.describe()  # no error-severity findings
        assert not [c for c in report.codes() if c.startswith("W")]
        assert "W002" in lint_plan(bad).codes()


# ---------------------------------------------------------------------------
# CLI: --lint / --strict-warnings / --json
# ---------------------------------------------------------------------------

class TestVerifyCli:
    def _fake_registry(self, warn: bool):
        def fake(models, num_gpus=16, gpus_per_machine=8, beam=8, lint=False):
            report = VerificationReport()
            report.passes_run.append("lint-exposed-comm")
            if lint and warn:
                report.add(
                    Diagnostic(
                        "W002", Severity.WARNING, "exposed", "schedule gpipe"
                    )
                )
            return [
                verify_cli.CaseResult("bert_base", "hetero-16gpu", 1e-3, 1e-4, report)
            ]

        return fake

    def test_strict_warnings_turns_warnings_into_failure(self, monkeypatch):
        monkeypatch.setattr(verify_cli, "verify_registry", self._fake_registry(True))
        assert verify_cli.main(["--lint"]) == 0
        assert verify_cli.main(["--lint", "--strict-warnings"]) == 1

    def test_strict_warnings_passes_on_clean_run(self, monkeypatch):
        monkeypatch.setattr(verify_cli, "verify_registry", self._fake_registry(False))
        assert verify_cli.main(["--lint", "--strict-warnings"]) == 0

    def test_errors_still_fail_without_strict(self, monkeypatch):
        def fake(models, num_gpus=16, gpus_per_machine=8, beam=8, lint=False):
            report = VerificationReport()
            report.add(Diagnostic("G001", Severity.ERROR, "bad shape", "node x"))
            return [
                verify_cli.CaseResult("vit", "homog-p100-16gpu", 1e-3, 0.0, report)
            ]

        monkeypatch.setattr(verify_cli, "verify_registry", fake)
        assert verify_cli.main([]) == 1

    def test_planner_hooks_are_off(self, monkeypatch):
        # The CLI runs the checks itself, so neither the hierarchical hook
        # nor any chunk planner's hook may verify the plan a second time:
        # one switch turns both off.
        monkeypatch.setenv("REPRO_VERIFY", "1")
        config = verify_cli._config(8)
        assert config.synthesis.verify_after_plan is False

    def test_json_output_is_machine_readable(self, monkeypatch, capsys):
        monkeypatch.setattr(verify_cli, "verify_registry", self._fake_registry(True))
        assert verify_cli.main(["--lint", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (case,) = payload["cases"]
        assert case["model"] == "bert_base"
        assert case["ok"] is True
        assert case["warning_codes"] == ["W002"]
        assert case["lint_ms"] > 0
