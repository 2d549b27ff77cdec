"""Tests for the computation graph container and its analyses."""

import pytest

from repro.graph import (
    ComputationGraph,
    DType,
    GraphBuilder,
    GraphError,
)


def simple_graph():
    g = ComputationGraph("g")
    g.add_node("x", "placeholder", (), {"shape": (4, 8)})
    g.add_node("w", "parameter", (), {"shape": (8, 16)})
    g.add_node("y", "matmul", ("x", "w"))
    g.add_node("z", "relu", ("y",))
    g.add_node("loss", "reduce_sum", ("z",))
    g.mark_loss("loss")
    return g


class TestGraphConstruction:
    def test_shapes_inferred(self):
        g = simple_graph()
        assert g["y"].spec.shape == (4, 16)
        assert g["loss"].spec.shape == ()

    def test_duplicate_node_rejected(self):
        g = simple_graph()
        with pytest.raises(GraphError):
            g.add_node("x", "placeholder", (), {"shape": (1,)})

    def test_unknown_input_rejected(self):
        g = ComputationGraph()
        with pytest.raises(GraphError):
            g.add_node("y", "relu", ("missing",))

    def test_wrong_arity_rejected(self):
        g = simple_graph()
        with pytest.raises(GraphError):
            g.add_node("bad", "matmul", ("x",))

    def test_shape_error_wrapped(self):
        g = simple_graph()
        with pytest.raises(GraphError):
            g.add_node("bad", "matmul", ("x", "x"))

    def test_mark_loss_requires_scalar(self):
        g = simple_graph()
        with pytest.raises(GraphError):
            g.mark_loss("y")

    def test_mark_output_unknown(self):
        g = simple_graph()
        with pytest.raises(GraphError):
            g.mark_output("nope")

    def test_loss_is_output(self):
        g = simple_graph()
        assert "loss" in g.outputs
        assert g.loss == "loss"

    def test_iteration_order_is_insertion_order(self):
        g = simple_graph()
        assert g.node_names == ["x", "w", "y", "z", "loss"]

    def test_contains_and_len(self):
        g = simple_graph()
        assert "y" in g and "nope" not in g
        assert len(g) == 5

    def test_validate_passes(self):
        simple_graph().validate()

    def test_summary_mentions_nodes(self):
        text = simple_graph().summary()
        assert "matmul" in text and "ComputationGraph" in text


class TestGraphQueries:
    def test_parameters_and_placeholders(self):
        g = simple_graph()
        assert [n.name for n in g.parameters()] == ["w"]
        assert [n.name for n in g.placeholders()] == ["x"]

    def test_consumers(self):
        g = simple_graph()
        consumers = g.consumers()
        assert consumers["x"] == ["y"]
        assert consumers["y"] == ["z"]
        assert consumers["loss"] == []

    def test_parameter_count_and_bytes(self):
        g = simple_graph()
        assert g.parameter_count() == 8 * 16
        assert g.parameter_bytes() == 8 * 16 * 4

    def test_total_flops_positive(self):
        assert simple_graph().total_flops() > 0

    def test_node_flops_matmul(self):
        g = simple_graph()
        assert g.node_flops("y") == pytest.approx(2 * 4 * 16 * 8)


class TestBuilder:
    def test_linear_creates_weight_and_bias(self):
        b = GraphBuilder()
        x = b.placeholder((4, 8))
        y = b.linear(x, 16)
        g = b.build()
        assert g[y].spec.shape == (4, 16)
        assert len(g.parameters()) == 2

    def test_attention_preserves_shape(self):
        b = GraphBuilder()
        x = b.placeholder((2, 6, 24))
        y = b.self_attention(x, num_heads=4)
        assert b.spec(y).shape == (2, 6, 24)

    def test_attention_rejects_bad_heads(self):
        b = GraphBuilder()
        x = b.placeholder((2, 6, 24))
        with pytest.raises(ValueError):
            b.self_attention(x, num_heads=5)

    def test_transformer_layer_shape(self):
        b = GraphBuilder()
        x = b.placeholder((2, 6, 24))
        y = b.transformer_layer(x, num_heads=4, ffn_hidden=48)
        assert b.spec(y).shape == (2, 6, 24)

    def test_moe_layer_shape(self):
        b = GraphBuilder()
        x = b.placeholder((2, 4, 16))
        y = b.moe_layer(x, num_experts=4, ffn_hidden=32)
        assert b.spec(y).shape == (2, 4, 16)

    def test_named_placeholder(self):
        b = GraphBuilder()
        b.placeholder((2, 2), name="my_input")
        assert "my_input" in b.build()

    def test_int_placeholder_dtype(self):
        b = GraphBuilder()
        name = b.placeholder((2, 2), dtype=DType.INT64)
        assert b.build()[name].spec.dtype is DType.INT64
