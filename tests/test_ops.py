"""Tests for the operator registry (shape inference, flops) and the runtime's numpy kernels."""

import ast
import inspect

import numpy as np
import pytest

import repro.graph.grad_ops  # noqa: F401  (register backward ops)
from repro.graph import DType, TensorSpec, get_op, registered_ops
from repro.graph.ops import OpKind
from repro.runtime import kernels
from repro.runtime.kernels import KERNELS


def spec(*shape, dtype=DType.FLOAT32):
    return TensorSpec(tuple(shape), dtype)


class TestRegistry:
    def test_known_operators_present(self):
        names = registered_ops()
        for expected in [
            "matmul", "conv2d", "relu", "softmax", "layernorm", "embedding",
            "cross_entropy", "moe_dispatch", "moe_combine", "sgd_update",
            "relu_grad", "softmax_grad", "embedding_grad", "conv2d_grad_input",
        ]:
            assert expected in names

    def test_unknown_operator_raises(self):
        with pytest.raises(KeyError):
            get_op("nonexistent_op")

    def test_duplicate_registration_rejected(self):
        from repro.graph.ops import OpDef, register_op

        existing = get_op("relu")
        with pytest.raises(ValueError):
            register_op(OpDef("relu", existing.kind, existing.infer, existing.flops, 1))


class TestShapeInference:
    def test_matmul_2d(self):
        out = get_op("matmul").infer([spec(4, 8), spec(8, 16)], {})
        assert out.shape == (4, 16)

    def test_matmul_batched(self):
        out = get_op("matmul").infer([spec(2, 4, 8), spec(2, 8, 16)], {})
        assert out.shape == (2, 4, 16)

    def test_matmul_3d_by_2d(self):
        out = get_op("matmul").infer([spec(2, 4, 8), spec(8, 16)], {})
        assert out.shape == (2, 4, 16)

    def test_matmul_mismatch_raises(self):
        with pytest.raises(ValueError):
            get_op("matmul").infer([spec(4, 8), spec(9, 16)], {})

    def test_elementwise_binary_requires_same_shape(self):
        with pytest.raises(ValueError):
            get_op("add").infer([spec(4, 8), spec(4, 9)], {})

    def test_bias_add_checks_last_dim(self):
        out = get_op("bias_add").infer([spec(4, 8), spec(8)], {})
        assert out.shape == (4, 8)
        with pytest.raises(ValueError):
            get_op("bias_add").infer([spec(4, 8), spec(4)], {})

    def test_reshape_checks_numel(self):
        out = get_op("reshape").infer([spec(4, 8)], {"shape": (2, 16)})
        assert out.shape == (2, 16)
        with pytest.raises(ValueError):
            get_op("reshape").infer([spec(4, 8)], {"shape": (3, 16)})

    def test_transpose_validates_perm(self):
        out = get_op("transpose").infer([spec(2, 3, 4)], {"perm": (2, 0, 1)})
        assert out.shape == (4, 2, 3)
        with pytest.raises(ValueError):
            get_op("transpose").infer([spec(2, 3)], {"perm": (0, 0)})

    def test_conv2d_output_shape(self):
        out = get_op("conv2d").infer([spec(2, 3, 8, 8), spec(16, 3, 3, 3)], {"stride": 1, "padding": 1})
        assert out.shape == (2, 16, 8, 8)

    def test_conv2d_stride(self):
        out = get_op("conv2d").infer([spec(2, 3, 8, 8), spec(16, 3, 3, 3)], {"stride": 2, "padding": 1})
        assert out.shape == (2, 16, 4, 4)

    def test_pool_output_shape(self):
        out = get_op("maxpool2d").infer([spec(2, 4, 8, 8)], {"kernel": 2, "stride": 2})
        assert out.shape == (2, 4, 4, 4)

    def test_embedding_shape(self):
        out = get_op("embedding").infer([spec(4, 6, dtype=DType.INT64), spec(100, 32)], {})
        assert out.shape == (4, 6, 32)

    def test_cross_entropy_scalar(self):
        out = get_op("cross_entropy").infer([spec(8, 10), spec(8, dtype=DType.INT64)], {})
        assert out.shape == ()

    def test_moe_dispatch_shape(self):
        out = get_op("moe_dispatch").infer([spec(16, 32), spec(16, 4)], {"capacity_factor": 1.0})
        assert out.shape == (4, 4, 32)

    def test_moe_combine_shape(self):
        out = get_op("moe_combine").infer([spec(4, 4, 32), spec(16, 4)], {})
        assert out.shape == (16, 32)

    def test_sgd_update_requires_matching_shapes(self):
        with pytest.raises(ValueError):
            get_op("sgd_update").infer([spec(4, 8), spec(8, 4)], {})

    def test_flatten(self):
        out = get_op("flatten").infer([spec(4, 3, 2, 2)], {})
        assert out.shape == (4, 12)

    def test_sum_leading(self):
        out = get_op("sum_leading").infer([spec(6, 4, 8)], {})
        assert out.shape == (8,)

    def test_broadcast_to(self):
        out = get_op("broadcast_to").infer([spec()], {"shape": (4, 5)})
        assert out.shape == (4, 5)


class TestFlops:
    def test_matmul_flops(self):
        op = get_op("matmul")
        specs = [spec(4, 8), spec(8, 16)]
        out = op.infer(specs, {})
        assert op.flops(specs, out, {}) == pytest.approx(2 * 4 * 16 * 8)

    def test_conv_flops_scale_with_output(self):
        op = get_op("conv2d")
        specs = [spec(1, 3, 8, 8), spec(4, 3, 3, 3)]
        out = op.infer(specs, {"stride": 1, "padding": 1})
        assert op.flops(specs, out, {"stride": 1, "padding": 1}) == pytest.approx(
            2 * out.numel * 3 * 3 * 3
        )

    def test_source_flops_zero(self):
        op = get_op("parameter")
        out = op.infer([], {"shape": (10, 10)})
        assert op.flops([], out, {"shape": (10, 10)}) == 0.0

    def test_elementwise_flops_linear_in_numel(self):
        op = get_op("relu")
        s = spec(16, 16)
        assert op.flops([s], s, {}) == pytest.approx(256)


class TestKernelTable:
    def test_one_kernel_per_registered_op(self):
        # Keys of the table's literal, so a duplicate key cannot hide a kernel.
        table = next(
            node.value
            for node in ast.parse(inspect.getsource(kernels)).body
            if isinstance(node, ast.AnnAssign) and node.target.id == "KERNELS"
        )
        names = [key.value for key in table.keys]
        assert len(names) == len(set(names))
        assert sorted(names) == registered_ops() == sorted(KERNELS)


class TestExecution:
    def test_relu(self, rng):
        x = rng.normal(size=(4, 5))
        out = KERNELS["relu"]([x], {})
        np.testing.assert_allclose(out, np.maximum(x, 0))

    def test_softmax_rows_sum_to_one(self, rng):
        x = rng.normal(size=(6, 9))
        out = KERNELS["softmax"]([x], {"axis": -1})
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(6), rtol=1e-6)

    def test_layernorm_zero_mean_unit_var(self, rng):
        x = rng.normal(size=(5, 32)) * 3 + 1
        out = KERNELS["layernorm"]([x], {"axis": -1})
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(5), atol=1e-6)
        np.testing.assert_allclose(out.var(axis=-1), np.ones(5), rtol=1e-3)

    def test_matmul_matches_numpy(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 5))
        np.testing.assert_allclose(KERNELS["matmul"]([a, b], {}), a @ b)

    def test_conv2d_matches_direct_convolution(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        out = KERNELS["conv2d"]([x, w], {"stride": 1, "padding": 0})
        # direct computation of one output element
        expected = np.sum(x[0, :, 1:4, 2:5] * w[1])
        assert out[0, 1, 1, 2] == pytest.approx(expected, rel=1e-6)

    def test_maxpool(self, rng):
        x = rng.normal(size=(1, 1, 4, 4))
        out = KERNELS["maxpool2d"]([x], {"kernel": 2, "stride": 2})
        assert out[0, 0, 0, 0] == pytest.approx(x[0, 0, :2, :2].max())

    def test_avgpool(self, rng):
        x = rng.normal(size=(1, 1, 4, 4))
        out = KERNELS["avgpool2d"]([x], {"kernel": 2, "stride": 2})
        assert out[0, 0, 1, 1] == pytest.approx(x[0, 0, 2:, 2:].mean())

    def test_embedding_lookup(self, rng):
        table = rng.normal(size=(10, 4))
        ids = np.array([[1, 3], [0, 9]])
        out = KERNELS["embedding"]([ids, table], {})
        np.testing.assert_allclose(out[0, 1], table[3])

    def test_cross_entropy_is_sum_not_mean(self, rng):
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=(6,))
        loss = KERNELS["cross_entropy"]([logits, labels], {})
        half = KERNELS["cross_entropy"]([logits[:3], labels[:3]], {}) + KERNELS[
            "cross_entropy"
        ]([logits[3:], labels[3:]], {})
        assert float(loss) == pytest.approx(float(half), rel=1e-6)

    def test_cross_entropy_positive(self, rng):
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=(6,))
        assert float(KERNELS["cross_entropy"]([logits, labels], {})) > 0

    def test_moe_dispatch_combine_roundtrip_is_weighted(self, rng):
        tokens = rng.normal(size=(8, 4))
        gates = rng.normal(size=(8, 3))
        dispatched = KERNELS["moe_dispatch"]([tokens, gates], {"capacity_factor": 3.0})
        combined = KERNELS["moe_combine"]([dispatched, gates], {})
        probs = np.exp(gates - gates.max(axis=1, keepdims=True))
        probs = probs / probs.sum(axis=1, keepdims=True)
        chosen = probs[np.arange(8), np.argmax(gates, axis=1)]
        np.testing.assert_allclose(combined, tokens * chosen[:, None], rtol=1e-6)

    def test_moe_dispatch_respects_capacity(self, rng):
        tokens = rng.normal(size=(8, 4))
        gates = np.zeros((8, 2))
        gates[:, 0] = 1.0  # all tokens route to expert 0
        dispatched = KERNELS["moe_dispatch"]([tokens, gates], {"capacity_factor": 1.0})
        # capacity = ceil(8/2 * 1.0) = 4, so only 4 tokens are kept
        assert dispatched.shape == (2, 4, 4)
        assert np.count_nonzero(np.abs(dispatched[0]).sum(axis=1)) == 4
        assert np.allclose(dispatched[1], 0.0)

    def test_sgd_update(self, rng):
        p = rng.normal(size=(3, 3))
        g = rng.normal(size=(3, 3))
        out = KERNELS["sgd_update"]([p, g], {"lr": 0.1})
        np.testing.assert_allclose(out, p - 0.1 * g)

    def test_source_execute_raises(self):
        with pytest.raises(RuntimeError):
            KERNELS["placeholder"]([], {"shape": (2,)})

    def test_scale(self, rng):
        x = rng.normal(size=(4,))
        np.testing.assert_allclose(KERNELS["scale"]([x], {"factor": 2.5}), 2.5 * x)


class TestKinds:
    @pytest.mark.parametrize(
        "name,kind",
        [
            ("matmul", OpKind.MATMUL),
            ("relu", OpKind.ELEMENTWISE),
            ("bias_add", OpKind.BROADCAST_BIAS),
            ("softmax", OpKind.NORMALIZATION),
            ("reduce_sum", OpKind.REDUCTION),
            ("conv2d", OpKind.CONV),
            ("embedding", OpKind.EMBEDDING),
            ("moe_dispatch", OpKind.MOE_DISPATCH),
            ("moe_combine", OpKind.MOE_COMBINE),
            ("sgd_update", OpKind.OPTIMIZER),
            ("sum_leading", OpKind.SUM_LEADING),
            ("broadcast_to", OpKind.BROADCAST),
        ],
    )
    def test_operator_kinds(self, name, kind):
        assert get_op(name).kind is kind
