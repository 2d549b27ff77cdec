"""Extra ablations beyond the paper's figures.

* beam width of the synthesizer vs plan quality and planning time;
* LP load balancer vs computation-proportional and even ratios.

These quantify the design choices called out in DESIGN.md.
"""

import time

from repro.autodiff import build_training_graph
from repro.cluster import heterogeneous_testbed
from repro.core import CostModel, LoadBalancer, ProgramSynthesizer, SynthesisConfig
from repro.models import BenchmarkScale, build_model

from .conftest import FULL


def _training_graph():
    scale = BenchmarkScale("bench", layer_fraction=0.17)
    return build_training_graph(build_model("bert_base", num_gpus=16, scale=scale)).graph


def test_ablation_beam_width(benchmark, record_rows):
    graph = _training_graph()
    cluster = heterogeneous_testbed(16)
    widths = (1, 4, 16, 64) if FULL else (1, 4, 16)
    rows = []

    def sweep():
        rows.clear()
        for beam in widths:
            synthesizer = ProgramSynthesizer(graph, cluster, SynthesisConfig(beam_width=beam))
            start = time.perf_counter()
            result = synthesizer.synthesize(cluster.proportional_ratios())
            rows.append(
                {
                    "beam_width": beam,
                    "cost_ms": result.cost * 1e3,
                    "synthesis_seconds": time.perf_counter() - start,
                    "collectives": result.program.num_communications,
                }
            )
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    record_rows(rows, "Ablation — beam width vs plan quality")
    # Wider beams never produce worse plans (they search a superset).
    costs = [row["cost_ms"] for row in rows]
    assert costs[-1] <= costs[0] * 1.001
    # Narrower beams are not slower to search than the widest beam.
    assert rows[0]["synthesis_seconds"] <= rows[-1]["synthesis_seconds"] * 1.5


def test_ablation_load_balancer(benchmark, record_rows):
    graph = _training_graph()
    cluster = heterogeneous_testbed(16)
    synthesizer = ProgramSynthesizer(graph, cluster, SynthesisConfig(beam_width=8))
    program = synthesizer.synthesize(cluster.proportional_ratios()).program
    cost_model = CostModel(graph, cluster)

    def solve():
        return LoadBalancer(cluster).optimize(program, cost_model)

    result = benchmark.pedantic(solve, rounds=1, iterations=1)
    rows = [
        {"ratios": "LP", "time_ms": cost_model.evaluate(program, result.ratios).total * 1e3},
        {
            "ratios": "proportional",
            "time_ms": cost_model.evaluate(program, cluster.proportional_ratios()).total * 1e3,
        },
        {"ratios": "even", "time_ms": cost_model.evaluate(program, cluster.even_ratios()).total * 1e3},
    ]
    record_rows(rows, "Ablation — LP ratios vs CP/EV ratios")
    lp, cp, ev = (row["time_ms"] for row in rows)
    assert lp <= cp * 1.001
    assert lp <= ev * 1.001
