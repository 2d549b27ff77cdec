"""Table 1: benchmark models and parameter counts."""

from repro.experiments import table1_models

from .conftest import bench_planner  # noqa: F401  (keeps import surface uniform)


def test_table1_models(benchmark, record_rows):
    rows = benchmark.pedantic(table1_models, kwargs={"num_gpus": 8}, rounds=1, iterations=1)
    record_rows(rows, "Table 1 — benchmark models (8 GPUs)")
    names = [row["model"] for row in rows]
    assert names == ["vgg19", "vit", "bert_base", "bert_moe"]
    # Parameter counts stay within 2x of the paper's figures (our BERT LM head
    # is untied and the MoE expert width differs slightly).
    for row in rows:
        ratio = row["parameters_millions"] / row["paper_parameters_millions"]
        assert 0.5 < ratio < 2.0, row
