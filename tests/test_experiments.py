"""Tests for the experiment harness and the figure regenerators (CI-sized)."""

import pytest

from repro.cluster import heterogeneous_testbed
from repro.core import SynthesisConfig
from repro.experiments import (
    compare_systems,
    fig17_uneven_experts,
    fig19_synthesis_time,
    fig2_sharding_ratio_tradeoff,
    fig4_all_gather_variants,
    format_comparison,
    format_rows,
    table1_models,
)
from repro.models import BenchmarkScale


def tiny_planner():
    return SynthesisConfig(beam_width=4)


@pytest.fixture(scope="module")
def tiny_scale():
    return BenchmarkScale("ci", layer_fraction=0.1, batch_per_device=64)


class TestHarness:
    @pytest.fixture(scope="class")
    def comparison(self):
        cluster = heterogeneous_testbed(16)
        return compare_systems(
            "bert_base",
            cluster,
            num_gpus=16,
            systems=["HAP", "DP-EV", "DP-CP"],
            scale=BenchmarkScale("ci", layer_fraction=0.1, batch_per_device=16),
            planner_config=tiny_planner(),
            simulation_iterations=1,
        )

    def test_all_systems_reported(self, comparison):
        assert set(comparison.results) == {"HAP", "DP-EV", "DP-CP"}

    def test_times_positive(self, comparison):
        for result in comparison.results.values():
            assert result.simulated_time is None or result.simulated_time > 0

    def test_hap_not_slower_than_best_baseline(self, comparison):
        speedup = comparison.hap_speedup()
        assert speedup is None or speedup >= 0.75

    def test_format_comparison(self, comparison):
        text = format_comparison(comparison)
        assert "HAP" in text and "DP-EV" in text

    def test_best_baseline_excludes_hap(self, comparison):
        best = comparison.best_baseline()
        assert best is None or best.system != "HAP"


class TestFigureRegenerators:
    def test_fig15_q_simulated_at_the_ratios_it_was_synthesized_at(self, monkeypatch):
        from repro.core.synthesizer import ProgramSynthesizer
        from repro.experiments import figures

        plans, simulated, synthesized = [], [], []
        q_plan = figures.fig15_q_plan
        simulate = figures.ExecutionSimulator.simulate
        synthesize = ProgramSynthesizer.synthesize

        def recording_q_plan(*args):
            plans.append(q_plan(*args))
            return plans[-1]

        def recording_simulate(self, program, ratios, *args, **kwargs):
            simulated.append((program, list(ratios)))
            return simulate(self, program, ratios, *args, **kwargs)

        def recording_synthesize(self, ratios=None):
            result = synthesize(self, ratios)
            synthesized.append((result.program, None if ratios is None else list(ratios)))
            return result

        monkeypatch.setattr(figures, "fig15_q_plan", recording_q_plan)
        monkeypatch.setattr(figures.ExecutionSimulator, "simulate", recording_simulate)
        monkeypatch.setattr(ProgramSynthesizer, "synthesize", recording_synthesize)
        figures.fig15_ablation(
            models=("bert_base",),
            num_gpus=16,
            scale=BenchmarkScale("ci", layer_fraction=0.1, batch_per_device=16),
            beam_width=4,
        )
        (q,) = plans
        assert q.flat_ratios == heterogeneous_testbed(16).even_ratios()
        # Synthesized at those ratios, once.
        assert [r for program, r in synthesized if program is q.program] == [q.flat_ratios]
        ratios = [r for program, r in simulated if program is q.program]
        assert ratios and all(r == q.flat_ratios for r in ratios)

    def test_table1_rows(self):
        rows = table1_models(num_gpus=8)
        assert len(rows) == 4
        assert all(row["parameters_millions"] > 10 for row in rows)

    def test_fig4_crossover_shape(self):
        rows = fig4_all_gather_variants()
        winners = [row["winner"] for row in rows]
        # padded wins for nearly-even shards, grouped for heavy skew
        assert winners[0] == "padded"
        assert winners[-1] == "grouped"
        # bandwidth of the padded variant decreases with skew
        padded = [row["padded_all_gather_gbps"] for row in rows]
        assert padded[0] > padded[-1]

    def test_fig2_crossover_shape(self):
        rows = fig2_sharding_ratio_tradeoff(hidden_sizes=(256, 2048), batch=16, seq=32)
        assert rows[0]["comp_to_comm_ratio"] < rows[-1]["comp_to_comm_ratio"]
        # EV preferred at the communication-bound end, CP at the compute-bound end
        assert rows[0]["winner"] == "EV"
        assert rows[-1]["winner"] == "CP"

    def test_fig19_growth(self):
        rows = fig19_synthesis_time(layer_counts=(1, 2), hidden_size=96, batch_size=16, beam_width=4)
        assert rows[0]["graph_nodes"] < rows[1]["graph_nodes"]
        assert all(row["synthesis_seconds"] > 0 for row in rows)

    def test_fig17_smoke(self):
        rows = fig17_uneven_experts(
            expert_counts=(4, 6),
            tokens_per_expert=16,
            hidden_size=32,
            num_layers=1,
            seq_len=8,
            planner_config=tiny_planner(),
        )
        assert len(rows) == 2
        # DeepSpeed pads 6 experts up to 8 on 4 devices; HAP does not pad.
        assert rows[1]["padded_experts"] == 8
        assert rows[1]["hap_ms"] > 0 and rows[1]["deepspeed_ms"] > 0

    def test_format_rows_alignment(self):
        text = format_rows([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.25}], title="T")
        assert "T" in text and "a" in text and "10" in text

    def test_format_rows_empty(self):
        assert "no rows" in format_rows([], title="X")
