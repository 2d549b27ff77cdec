"""Static analysis suite (src/repro/verify/).

Positive direction: every registry model's graph IR (forward, training, and
planner-cut chunk graphs) must check clean, and every hierarchically planned
program, plan and schedule must verify clean (and the ``verify_after_plan``
hooks — on suite-wide via ``REPRO_VERIFY`` — mean every *other* test's plans
are verified too).  Negative direction: every seeded corruption from the
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
from pathlib import Path

import pytest

from repro.autodiff import build_training_graph
from repro.cluster import ClusterSpec, Machine, NetworkSpec, device_type
from repro.collectives.cost import CollectiveCostModel, CollectiveKind
from repro.core import (
    DiskPlanCache,
    HAPPlanner,
    HierarchicalConfig,
    HierarchicalPlanner,
    PlannerConfig,
    SynthesisConfig,
)
from repro.core.config import verify_default
from repro.core.instructions import CommInstruction
from repro.graph.graph import ComputationGraph
from repro.models.registry import MODEL_NAMES, build_tiny_model
from repro.simulator.schedule import get_schedule
from repro.verify import (
    PlanVerificationError,
    Severity,
    lint_plan,
    verify_graph,
    verify_plan,
    verify_program,
    verify_schedule_orders,
)
from repro.verify import cli as verify_cli
from repro.verify.base import Diagnostic, VerificationReport
from repro.verify.mutate import (
    GRAPH_MUTATIONS,
    PLAN_MUTATIONS,
    PROGRAM_MUTATIONS,
    SCHEDULE_MUTATIONS,
    duplicate_instruction,
)
from repro.verify.plan import verify_plan_structure

from .conftest import build_mlp, make_cluster, rename_nodes


def small_planner():
    return PlannerConfig(max_rounds=1, synthesis=SynthesisConfig(beam_width=8))


def two_group_cluster() -> ClusterSpec:
    """Two machine groups with the paper's slow inter-group network."""
    machines = [
        Machine("v1", device_type("V100"), num_gpus=4),
        Machine("p1", device_type("P100"), num_gpus=4),
    ]
    return ClusterSpec(machines, network=NetworkSpec(), group_by_machine=True)


def hier_config(**kwargs) -> HierarchicalConfig:
    kwargs.setdefault("planner", small_planner())
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
        # All three pass families actually ran.
        ran = set(report.passes_run)
        assert {"plan-partition", "program-dataflow", "schedule-acyclicity"} <= ran

    def test_flat_program_verifies(self, flat_plan):
        cluster = make_cluster()
        report = verify_program(flat_plan.program, cluster, flat_plan.flat_ratios)
        assert report.ok, report.describe()

    def test_canonical_schedules_verify(self):
        for name, s, m, v in (
            ("gpipe", 4, 8, 1),
            ("1f1b", 4, 8, 1),
            ("interleaved-1f1b", 2, 4, 2),
        ):
            orders = get_schedule(name, num_model_chunks=v).task_orders(s, m, v)
            report = verify_schedule_orders(
                orders, num_stages=s, num_microbatches=m, num_chunks=v, schedule_name=name
            )
            assert report.ok, (name, report.describe())


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


class TestScheduleMutations:
    @pytest.mark.parametrize("mutation", sorted(SCHEDULE_MUTATIONS))
    @pytest.mark.parametrize("schedule,s,m,v", [("1f1b", 4, 8, 1), ("gpipe", 3, 6, 1)])
    def test_mutation_caught(self, mutation, schedule, s, m, v):
        orders = get_schedule(schedule, num_model_chunks=v).task_orders(s, m, v)
        mutated, expected = SCHEDULE_MUTATIONS[mutation](orders)
        report = verify_schedule_orders(
            mutated, num_stages=s, num_microbatches=m, num_chunks=v, schedule_name=schedule
        )
        assert not report.ok, f"{mutation} went undiagnosed"
        assert expected in report.codes(), (
            f"{mutation}: expected {expected}, got {report.codes()}\n{report.describe()}"
        )

    def test_interleaved_wrap_hop_pairing(self):
        # Dropping a task from an interleaved order strands the matching
        # send/recv of a *wrap* hop (last stage -> stage 0) too.
        orders = get_schedule("interleaved-1f1b", num_model_chunks=2).task_orders(2, 4, 2)
        mutated = [list(o) for o in orders]
        mutated[-1].remove(("F", 1, 0))  # chunk-1 forward arrives via the wrap hop
        report = verify_schedule_orders(
            mutated, num_stages=2, num_microbatches=4, num_chunks=2,
            schedule_name="interleaved-1f1b",
        )
        assert "S002" in report.codes(), report.describe()


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
        mutated.stages[0].chunks = [dataclasses.replace(c) for c in bert_plan.stages[0].chunks]
        # A chunk on a one-machine group has no collectives, so corrupt the
        # dataflow instead: emulate one node twice.
        chunk = mutated.stages[0].chunks[0]
        bad_program, expected = duplicate_instruction(chunk.program)
        chunk.plan = dataclasses.replace(chunk.plan, program=bad_program)
        report = verify_plan(mutated, bert_forward)
        assert expected in report.codes(), report.describe()
        # The diagnostic is anchored to the owning virtual stage.
        assert any(
            d.code == expected and "virtual stage 0" in d.location
            for d in report.errors
        ), report.describe()

    def test_memory_mutation_is_error_only_when_plan_claims_fit(self, bert_plan, bert_forward):
        mutated, _ = PLAN_MUTATIONS["inflate_stage_memory"](bert_plan)
        # The plan still claims fits_memory=True, so the violation is an error...
        assert any(
            d.severity is Severity.ERROR and d.code == "L004"
            for d in verify_plan_structure(mutated, bert_forward).diagnostics
        )
        # ...but a plan that honestly reports infeasibility is not lying.
        mutated.fits_memory = False
        honest = verify_plan_structure(mutated, bert_forward)
        assert not [d for d in honest.errors if d.code == "L004"], honest.describe()


# ---------------------------------------------------------------------------
# verify_after_plan wiring
# ---------------------------------------------------------------------------

class TestVerifyAfterPlan:
    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "0")
        assert not verify_default()
        assert not HierarchicalConfig().verify_after_plan
        assert not SynthesisConfig().verify_after_plan
        monkeypatch.setenv("REPRO_VERIFY", "1")
        assert HierarchicalConfig().verify_after_plan
        assert SynthesisConfig().verify_after_plan

    def test_suite_runs_with_verifier_on(self):
        # tests/conftest.py turns the flag on suite-wide: every plan built by
        # any test goes through the verifier (this is the positive corpus).
        assert HierarchicalConfig().verify_after_plan

    def test_error_carries_report(self):
        from repro.verify.base import Diagnostic, VerificationReport

        report = VerificationReport()
        report.add(Diagnostic("L003", Severity.ERROR, "boom", "stage 0"))
        err = PlanVerificationError(report)
        assert err.report is report
        assert "L003" in str(err)


# ---------------------------------------------------------------------------
# cache corruption: verify-on-hit turns bad entries into diagnosed misses
# ---------------------------------------------------------------------------

class TestCacheCorruption:
    def _corrupt_on_disk(self, directory: str) -> int:
        """Hand-corrupt every entry file in a DiskPlanCache directory."""
        corrupted = 0
        for path in Path(directory).glob("*.plan"):
            entry = pickle.loads(path.read_bytes())
            if "chunk_orders" in entry.extra:
                # Whole-plan entry: break a chunk's boundary accounting.
                entry.plan.stages[0].chunks[0].send_bytes += 999
            else:
                # Chunk entry: corrupt its dataflow (a duplicated emulation).
                bad, _ = duplicate_instruction(entry.plan.program)
                entry.plan = dataclasses.replace(entry.plan, program=bad)
            path.write_bytes(pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL))
            corrupted += 1
        return corrupted

    def test_corrupt_entries_become_diagnosed_misses(self, bert_forward, tmp_path):
        directory = str(tmp_path / "plans")
        cold = HierarchicalPlanner(
            bert_forward,
            two_group_cluster(),
            hier_config(plan_cache=DiskPlanCache(directory)),
        ).plan()
        assert self._corrupt_on_disk(directory) > 0

        # Fresh cache instance: reads actually hit the corrupted files.
        warm = HierarchicalPlanner(
            bert_forward,
            two_group_cluster(),
            hier_config(plan_cache=DiskPlanCache(directory)),
        ).plan()
        assert warm.reuse_stats["whole_plan_hit"] == 0
        assert warm.reuse_stats["cache_rejects"] > 0
        assert warm.reuse_stats["subplans_planned"] > 0  # fell through to synthesis
        # The replanned result is clean and matches the cold plan.
        assert verify_plan(warm, bert_forward).ok
        assert warm.estimated_time == cold.estimated_time
        assert warm.schedule_name == cold.schedule_name

    @pytest.mark.parametrize("damage", ["shuffled", "truncated"])
    def test_bad_chunk_order_is_a_diagnosed_miss(self, bert_forward, tmp_path, damage):
        """A renamed request reads the whole entry's stored chunk orders; a
        damaged one is rejected and the plan comes from the chunk entries."""
        directory = str(tmp_path / "plans")
        cold = HierarchicalPlanner(
            bert_forward,
            two_group_cluster(),
            hier_config(plan_cache=DiskPlanCache(directory)),
        ).plan()
        damaged = 0
        for path in Path(directory).glob("*.plan"):
            entry = pickle.loads(path.read_bytes())
            if "chunk_orders" not in entry.extra:
                continue
            order = entry.extra["chunk_orders"][-1]
            order[:] = order[::-1] if damage == "shuffled" else order[:-1]
            path.write_bytes(pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL))
            damaged += 1
        assert damaged == 1

        renamed = rename_nodes(bert_forward)
        warm = HierarchicalPlanner(
            renamed,
            two_group_cluster(),
            hier_config(plan_cache=DiskPlanCache(directory)),
        ).plan()
        assert warm.reuse_stats["whole_plan_hit"] == 0
        assert warm.reuse_stats["cache_rejects"] == 1
        assert warm.reuse_stats["subplans_planned"] == 0  # chunk entries are intact
        assert verify_plan(warm, renamed).ok
        assert warm.estimated_time == cold.estimated_time
        assert warm.schedule_candidate_times == cold.schedule_candidate_times

    def test_intact_cache_still_hits(self, bert_forward, tmp_path):
        directory = str(tmp_path / "plans")
        config = hier_config(plan_cache=DiskPlanCache(directory))
        HierarchicalPlanner(bert_forward, two_group_cluster(), config).plan()
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
        for chunk in bert_plan.chunk_sequence():
            names = set(chunk.info.graph.node_names)
            for instr in chunk.program.instructions:
                if isinstance(instr, CommInstruction):
                    refs = {instr.input.ref, instr.output.ref}
                else:
                    refs = {p.ref for p in instr.inputs} | {instr.output.ref, instr.node}
                assert refs <= names, (
                    f"virtual stage {chunk.virtual_index}: {sorted(refs - names)} "
                    "not in the chunk graph"
                )

    def test_dependent_mask_and_phases_consistent_per_chunk(self, bert_plan):
        for chunk in bert_plan.chunk_sequence():
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
            for chunk in plan.chunk_sequence():
                report = verify_graph(chunk.info.graph)
                assert report.ok and not report.warnings, (
                    f"virtual stage {chunk.virtual_index}: {report.describe()}"
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
        # dead without roots and alive with them.
        g = ComputationGraph("stagey")
        g.add_node("x", "placeholder", (), {"shape": (4, 8)})
        g.add_node("y", "relu", ("x",), {})
        assert "G004" in verify_graph(g).codes()
        assert verify_graph(g, roots=["y"]).ok

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

    def test_w004_memory_headroom(self, bert_plan):
        bad = copy.deepcopy(bert_plan)
        bad.stage_memory_utilization = [0.95] + bad.stage_memory_utilization[1:]
        assert bad.fits_memory
        assert "W004" in lint_plan(bad).codes()
        # An honestly-infeasible plan is L004's business, not a headroom lint.
        bad.fits_memory = False
        assert "W004" not in lint_plan(bad).codes()

    def test_w005_degenerate_interleaving(self, bert_plan):
        bad = copy.deepcopy(bert_plan)
        bad.num_model_chunks = 2
        key = (bad.num_stages, "1f1b", bad.num_microbatches, False)
        bad.schedule_candidate_times[key] = bad.estimated_time  # no win
        assert "W005" in lint_plan(bad).codes()
        # With a genuine bubble win over *every* non-interleaved candidate at
        # this stage count the interleaving is earning its keep.
        for rival in list(bad.schedule_candidate_times):
            if rival[0] == bad.num_stages and rival[1] != "interleaved-1f1b":
                bad.schedule_candidate_times[rival] = 2.0 * bad.estimated_time
        assert "W005" not in lint_plan(bad).codes()

    def test_w006_dominated_collective(self, sharded_plan):
        bad = copy.deepcopy(sharded_plan)
        for chunk in bad.chunk_sequence():
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

    def test_verify_plan_folds_lint_in(self, bert_plan, bert_forward):
        bad = copy.deepcopy(bert_plan)
        bad.schedule.exposed_transfer = 0.5 * bad.schedule.total
        report = verify_plan(bad, bert_forward)
        assert report.ok  # still no error-severity findings
        assert "W002" in report.codes()
        assert any("lint" in d.location for d in report.warnings)
        # Opting out skips the W passes entirely.
        quiet = verify_plan(bad, bert_forward, lint=False)
        assert not [c for c in quiet.codes() if c.startswith("W")]


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

    def test_json_output_is_machine_readable(self, monkeypatch, capsys):
        monkeypatch.setattr(verify_cli, "verify_registry", self._fake_registry(True))
        assert verify_cli.main(["--lint", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (case,) = payload["cases"]
        assert case["model"] == "bert_base"
        assert case["ok"] is True
        assert case["warning_codes"] == ["W002"]
        assert case["lint_ms"] > 0
