"""Tests for the benchmark model zoo and the synthetic datasets."""

import numpy as np
import pytest

from repro.data import batches_for_graph
from repro.models import (
    MODEL_NAMES,
    PER_DEVICE_BATCH,
    BERTConfig,
    BERTMoEConfig,
    VGGConfig,
    ViTConfig,
    build_bert,
    build_bert_moe,
    build_model,
    build_tiny_model,
    build_vgg19,
    build_vit,
    canonical_name,
    table1_inventory,
)
from repro.runtime import SingleDeviceExecutor, init_parameters


class TestModelZoo:
    def test_canonical_names_and_aliases(self):
        assert canonical_name("Vvgg") == "vgg19"
        assert canonical_name("Rmoe") == "bert_moe"
        assert canonical_name("bert_base") == "bert_base"
        with pytest.raises(KeyError):
            canonical_name("resnet50")

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_tiny_models_build_and_validate(self, name):
        graph = build_tiny_model(name)
        graph.validate()
        assert graph.loss is not None
        assert graph.parameter_count() > 0

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_tiny_models_execute(self, name):
        graph = build_tiny_model(name)
        executor = SingleDeviceExecutor(graph)
        bindings = {**init_parameters(graph, seed=0), **batches_for_graph(graph, seed=1)}
        loss = executor.loss_value(bindings)
        assert np.isfinite(loss) and loss > 0

    def test_weak_scaling_batch_size(self):
        g8 = build_model("bert_base", num_gpus=8)
        g16 = build_model("bert_base", num_gpus=16)
        b8 = g8.placeholders()[0].spec.shape[0]
        b16 = g16.placeholders()[0].spec.shape[0]
        assert b16 == 2 * b8 == PER_DEVICE_BATCH["bert_base"] * 16

    @pytest.mark.parametrize("name", ["bert_base", "bert_moe"])
    def test_scale_batch_per_device_is_honoured(self, name):
        # Regression: build_model used to hardwire the global batch to
        # PER_DEVICE_BATCH regardless of the scale, corrupting weak-scaling
        # and reduced-scale experiments.
        from repro.models import BenchmarkScale

        scale = BenchmarkScale("test", layer_fraction=0.1, batch_per_device=8)
        graph = build_model(name, num_gpus=4, scale=scale)
        assert graph.placeholders()[0].spec.shape[0] == 8 * 4

    def test_scale_without_batch_keeps_paper_defaults(self):
        from repro.models import BenchmarkScale

        scale = BenchmarkScale("test", layer_fraction=0.1)  # batch_per_device=None
        for name in MODEL_NAMES:
            graph = build_model(name, num_gpus=4, scale=scale)
            assert graph.placeholders()[0].spec.shape[0] == PER_DEVICE_BATCH[name] * 4
        assert BenchmarkScale.paper().batch_per_device is None
        assert BenchmarkScale.reduced().batch_per_device is None

    def test_moe_experts_scale_with_devices(self):
        g8 = build_model("bert_moe", num_gpus=8)
        g16 = build_model("bert_moe", num_gpus=16)

        def experts(graph):
            return max(
                n.spec.shape[0] for n in graph.parameters() if n.spec.rank == 3
            )

        assert experts(g16) == 2 * experts(g8)

    def test_moe_expert_override(self):
        graph = build_model("bert_moe", num_gpus=4, num_experts=10)
        experts = max(n.spec.shape[0] for n in graph.parameters() if n.spec.rank == 3)
        assert experts == 10

    def test_vgg_parameter_count_close_to_paper(self):
        graph = build_vgg19(VGGConfig(batch_size=8))
        assert graph.parameter_count() / 1e6 == pytest.approx(133, rel=0.1)

    def test_vit_parameter_count_close_to_paper(self):
        graph = build_vit(ViTConfig(batch_size=8))
        assert graph.parameter_count() / 1e6 == pytest.approx(54, rel=0.15)

    def test_bert_parameter_count_order(self):
        graph = build_bert(BERTConfig(batch_size=8))
        assert 80 < graph.parameter_count() / 1e6 < 150

    def test_bert_moe_has_more_parameters_than_bert(self):
        bert = build_bert(BERTConfig(batch_size=8, num_layers=4))
        moe = build_bert_moe(BERTMoEConfig(batch_size=8, num_layers=4, num_experts=8))
        assert moe.parameter_count() > bert.parameter_count()

    def test_vit_requires_divisible_patches(self):
        with pytest.raises(ValueError):
            build_vit(ViTConfig(image_size=30, patch_size=4))

    def test_table1_inventory(self):
        rows = table1_inventory(num_gpus=8)
        assert [r.name for r in rows] == MODEL_NAMES
        assert all(r.parameters > 1e6 for r in rows)

    def test_placeholders_are_batch_major(self):
        """All data placeholders carry the batch dimension first (required for
        consistent sharding across inputs and labels)."""
        for name in MODEL_NAMES:
            graph = build_tiny_model(name)
            batch_sizes = {p.spec.shape[0] for p in graph.placeholders()}
            assert len(batch_sizes) == 1, name


class TestSyntheticData:
    def test_batches_for_graph_matches_placeholders(self):
        graph = build_tiny_model("bert_base")
        batch = batches_for_graph(graph, seed=0)
        for node in graph.placeholders():
            assert batch[node.name].shape == node.spec.shape

    def test_batches_for_graph_labels_within_range(self):
        graph = build_tiny_model("vgg19")
        batch = batches_for_graph(graph, seed=0)
        assert batch["labels"].max() < 10

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_batches_for_graph_covers_every_placeholder(self, name):
        graph = build_tiny_model(name)
        batch = batches_for_graph(graph, seed=0)
        assert set(batch) == {node.name for node in graph.placeholders()}
        for node in graph.placeholders():
            assert batch[node.name].dtype == np.dtype(node.spec.dtype.numpy_name)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_batches_for_graph_is_deterministic_per_seed(self, name):
        graph = build_tiny_model(name)
        first, again = batches_for_graph(graph, seed=3), batches_for_graph(graph, seed=3)
        other = batches_for_graph(graph, seed=4)
        for key in first:
            np.testing.assert_array_equal(first[key], again[key])
        assert any(not np.array_equal(first[key], other[key]) for key in first)

    def test_token_ids_within_vocabulary(self):
        graph = build_tiny_model("bert_base")
        vocab = next(graph[n.inputs[1]].spec.shape[0] for n in graph if n.op == "embedding")
        batch = batches_for_graph(graph, seed=0)
        assert 0 <= batch["input_ids"].min()
        assert batch["input_ids"].max() < vocab

    def test_num_classes_override_bounds_labels(self):
        graph = build_tiny_model("vgg19")
        batch = batches_for_graph(graph, seed=0, num_classes=3)
        assert set(np.unique(batch["labels"])) <= {0, 1, 2}
