"""Tests for reverse-mode autodiff: structure and numerical gradient checks."""

import numpy as np
import pytest

from repro.autodiff import build_training_graph
from repro.graph import DType, GraphBuilder, GraphError
from repro.graph.ops import OpKind
from repro.runtime import SingleDeviceExecutor

from .conftest import bindings_for, build_mlp, build_tiny_transformer


def finite_difference(executor, bindings, loss_name, param, index, eps=1e-3):
    plus = dict(bindings)
    arr = plus[param].copy()
    arr.flat[index] += eps
    plus[param] = arr
    minus = dict(bindings)
    arr = minus[param].copy()
    arr.flat[index] -= eps
    minus[param] = arr
    lp = float(executor.run(plus, outputs=[loss_name])[loss_name])
    lm = float(executor.run(minus, outputs=[loss_name])[loss_name])
    return (lp - lm) / (2 * eps)


class TestTrainingGraphStructure:
    def test_requires_loss(self):
        b = GraphBuilder()
        x = b.placeholder((2, 2))
        b.relu(x)
        with pytest.raises(GraphError):
            build_training_graph(b.build())

    def test_every_parameter_gets_update(self, mlp_forward):
        info = build_training_graph(mlp_forward)
        params = {p.name for p in mlp_forward.parameters()}
        assert set(info.updates) == params
        assert set(info.gradients) == params

    def test_updates_are_outputs(self, mlp_forward):
        info = build_training_graph(mlp_forward)
        for update in info.updates.values():
            assert update in info.graph.outputs

    def test_loss_preserved(self, mlp_forward):
        info = build_training_graph(mlp_forward)
        assert info.graph.loss == mlp_forward.loss

    def test_forward_nodes_copied(self, mlp_forward):
        info = build_training_graph(mlp_forward)
        for node in mlp_forward:
            assert node.name in info.graph

    def test_training_graph_larger_than_forward(self, transformer_forward):
        info = build_training_graph(transformer_forward)
        assert len(info.graph) > 2 * len(transformer_forward) * 0.8

    def test_moe_gate_weight_skipped(self, moe_forward):
        info = build_training_graph(moe_forward)
        assert any("gate" in name for name in info.skipped_parameters)

    def test_sgd_update_nodes_have_optimizer_kind(self, mlp_forward):
        info = build_training_graph(mlp_forward)
        for update in info.updates.values():
            assert info.graph[update].kind is OpKind.OPTIMIZER

    def test_learning_rate_stored(self, mlp_forward):
        info = build_training_graph(mlp_forward, lr=0.25)
        update = next(iter(info.updates.values()))
        assert info.graph[update].attrs["lr"] == 0.25

    def test_graph_validates(self, moe_training):
        moe_training.graph.validate()


class TestGradientCorrectness:
    """Analytic gradients match central finite differences."""

    def _check(self, forward, checks=3, rel=0.15, seed=0):
        info = build_training_graph(forward)
        executor = SingleDeviceExecutor(info.graph)
        bindings = bindings_for(info.graph, seed=seed)
        # float64 parameters reduce finite-difference noise
        bindings = {
            k: v.astype(np.float64) if v.dtype == np.float32 else v for k, v in bindings.items()
        }
        rng = np.random.default_rng(seed)
        loss = info.loss
        for param, grad_name in list(info.gradients.items())[:checks]:
            grads = executor.run(bindings, outputs=[grad_name])[grad_name]
            idx = int(rng.integers(0, grads.size))
            fd = finite_difference(executor, bindings, loss, param, idx)
            analytic = float(grads.flat[idx])
            if abs(fd) < 1e-4 and abs(analytic) < 1e-4:
                continue
            assert analytic == pytest.approx(fd, rel=rel, abs=2e-3), param

    def test_mlp_gradients(self):
        self._check(build_mlp(batch=8, in_features=12, hidden=16, classes=6))

    def test_transformer_gradients(self):
        self._check(build_tiny_transformer(batch=4, seq=4, hidden=16, heads=2), checks=4)

    def test_deep_mlp_gradients(self):
        b = GraphBuilder("deep")
        x = b.placeholder((6, 10))
        h = x
        for width in (12, 14, 16):
            h = b.linear(h, width)
            h = b.gelu(h)
        logits = b.linear(h, 5)
        labels = b.placeholder((6,), dtype=DType.INT64, name="labels")
        b.loss(b.cross_entropy(logits, labels))
        self._check(b.build(), checks=4)

    def test_layernorm_gradient(self):
        b = GraphBuilder("ln")
        x = b.placeholder((4, 8))
        w = b.parameter((8, 8), name="w")
        h = b.matmul(x, w)
        h = b.layernorm(h)
        logits = b.linear(h, 4)
        labels = b.placeholder((4,), dtype=DType.INT64, name="labels")
        b.loss(b.cross_entropy(logits, labels))
        self._check(b.build(), checks=1)

    def test_conv_gradients(self):
        b = GraphBuilder("cnn")
        x = b.placeholder((2, 2, 8, 8))
        w = b.parameter((4, 2, 3, 3), name="conv_w")
        h = b.conv2d(x, w, stride=1, padding=1)
        h = b.relu(h)
        h = b.maxpool2d(h, 2)
        h = b.flatten(h)
        logits = b.linear(h, 5)
        labels = b.placeholder((2,), dtype=DType.INT64, name="labels")
        b.loss(b.cross_entropy(logits, labels))
        self._check(b.build(), checks=2, rel=0.2)

    def test_embedding_gradient(self):
        b = GraphBuilder("embed")
        ids = b.placeholder((4, 3), dtype=DType.INT64, name="ids")
        table = b.parameter((20, 8), name="table")
        x = b.embedding(ids, table)
        x = b.reshape(x, (12, 8))
        logits = b.linear(x, 5)
        labels2d = b.placeholder((4, 3), dtype=DType.INT64, name="labels")
        labels = b.reshape(labels2d, (12,))
        b.loss(b.cross_entropy(logits, labels))
        self._check(b.build(), checks=2)


class TestTrainingStep:
    def test_loss_decreases_over_sgd_steps(self):
        forward = build_mlp(batch=16, in_features=8, hidden=32, classes=4)
        info = build_training_graph(forward, lr=0.05)
        executor = SingleDeviceExecutor(info.graph)
        bindings = bindings_for(info.graph, seed=3)
        first_loss = None
        last_loss = None
        for _ in range(6):
            result = executor.run(bindings)
            loss = float(result[info.loss])
            if first_loss is None:
                first_loss = loss
            last_loss = loss
            for param, update in info.updates.items():
                bindings[param] = result[update]
        assert last_loss < first_loss

    def test_update_moves_parameters(self, mlp_training):
        executor = SingleDeviceExecutor(mlp_training.graph)
        bindings = bindings_for(mlp_training.graph)
        result = executor.run(bindings)
        moved = 0
        for param, update in mlp_training.updates.items():
            if not np.allclose(result[update], bindings[param]):
                moved += 1
        assert moved >= 1
