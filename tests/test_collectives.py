"""Tests for functional collectives and the analytic cost models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import a100_pair, heterogeneous_testbed
from repro.collectives import CollectiveCostModel, CollectiveKind, max_ratio
from repro.collectives.functional import (
    all_gather,
    all_reduce,
    all_to_all,
    broadcast,
    reduce_scatter,
    split,
)
from repro.graph import shard_sizes


class TestFunctionalCollectives:
    def test_all_gather_concatenates(self, rng):
        full = rng.normal(size=(10, 4))
        shards = split(full, 0, [3, 3, 4])
        gathered = all_gather(shards, 0)
        assert len(gathered) == 3
        for g in gathered:
            np.testing.assert_allclose(g, full)

    def test_all_gather_uneven_including_empty(self, rng):
        full = rng.normal(size=(5, 2))
        shards = split(full, 0, [5, 0])
        gathered = all_gather(shards, 0)
        np.testing.assert_allclose(gathered[1], full)

    def test_all_reduce_sums(self, rng):
        replicas = [rng.normal(size=(3, 3)) for _ in range(4)]
        out = all_reduce(replicas)
        np.testing.assert_allclose(out[2], sum(replicas))

    def test_reduce_scatter_matches_allreduce_then_split(self, rng):
        replicas = [rng.normal(size=(8, 2)) for _ in range(2)]
        out = reduce_scatter(replicas, 0, [5, 3])
        total = replicas[0] + replicas[1]
        np.testing.assert_allclose(out[0], total[:5])
        np.testing.assert_allclose(out[1], total[5:])

    def test_reduce_scatter_size_mismatch(self, rng):
        with pytest.raises(ValueError):
            reduce_scatter([rng.normal(size=(4,))], 0, [3])

    def test_all_to_all_reshards(self, rng):
        full = rng.normal(size=(6, 8))
        row_shards = split(full, 0, [4, 2])
        col_shards = all_to_all(row_shards, 0, 1, [5, 3])
        np.testing.assert_allclose(col_shards[0], full[:, :5])
        np.testing.assert_allclose(col_shards[1], full[:, 5:])

    def test_broadcast(self, rng):
        value = rng.normal(size=(2, 2))
        out = broadcast(value, 3)
        assert len(out) == 3
        np.testing.assert_allclose(out[2], value)

    def test_split_validates_sizes(self, rng):
        with pytest.raises(ValueError):
            split(rng.normal(size=(4, 2)), 0, [3, 3])

    def test_empty_participants_rejected(self):
        with pytest.raises(ValueError):
            all_reduce([])

    @given(
        rows=st.integers(min_value=1, max_value=40),
        cols=st.integers(min_value=1, max_value=8),
        parts=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_gather_of_split_is_identity(self, rows, cols, parts, seed):
        rng = np.random.default_rng(seed)
        full = rng.normal(size=(rows, cols))
        ratios = rng.uniform(0.0, 1.0, size=parts)
        sizes = shard_sizes(rows, ratios)
        shards = split(full, 0, sizes)
        gathered = all_gather(shards, 0)[0]
        np.testing.assert_allclose(gathered, full)

    @given(
        parts=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_reduce_scatter_equals_allreduce_slice(self, parts, seed):
        rng = np.random.default_rng(seed)
        replicas = [rng.normal(size=(12, 3)) for _ in range(parts)]
        sizes = shard_sizes(12, [1.0] * parts)
        scattered = reduce_scatter(replicas, 0, sizes)
        reduced = all_reduce(replicas)[0]
        offset = 0
        for shard, size in zip(scattered, sizes):
            np.testing.assert_allclose(shard, reduced[offset : offset + size], rtol=1e-6)
            offset += size


class TestCostModel:
    @pytest.fixture
    def model(self):
        return CollectiveCostModel(a100_pair())

    def test_max_ratio_clipping(self):
        assert max_ratio([0.1, 0.1, 0.1, 0.1]) == pytest.approx(0.25)
        assert max_ratio([2.0, 0.0]) == 1.0
        with pytest.raises(ValueError):
            max_ratio([])

    def test_all_reduce_monotonic_in_bytes(self, model):
        assert model.all_reduce(2e6) < model.all_reduce(8e6)

    def test_all_gather_padded_grows_with_skew(self, model):
        even = [0.25] * 4
        skew = [0.7, 0.1, 0.1, 0.1]
        assert model.all_gather_padded(4e6, even) < model.all_gather_padded(4e6, skew)

    def test_grouped_broadcast_insensitive_to_skew(self, model):
        even = model.all_gather_grouped(4e6, [0.25] * 4)
        skew = model.all_gather_grouped(4e6, [0.9, 0.05, 0.03, 0.02])
        assert even == pytest.approx(skew)

    def test_fig4_crossover_exists(self, model):
        """Padded All-Gather wins for nearly-even shards, grouped for skewed."""
        even_kind, _ = model.best_all_gather(4e6, [0.25] * 4)
        skew_kind, _ = model.best_all_gather(4e6, [0.95, 0.02, 0.02, 0.01])
        assert even_kind is CollectiveKind.ALL_GATHER
        assert skew_kind is CollectiveKind.ALL_GATHER_GROUPED

    def test_best_all_gather_tie_goes_to_padded(self):
        from repro.cluster import ClusterSpec, Machine, device_type

        # One device: both implementations are free, so they tie.
        cluster = ClusterSpec([Machine("m0", device_type("V100"), 1)], group_by_machine=False)
        model = CollectiveCostModel(cluster)
        assert model.best_all_gather(1e6, [1.0]) == (CollectiveKind.ALL_GATHER, 0.0)

    @pytest.mark.parametrize(
        "ratios", [[0.25] * 4, [0.95, 0.02, 0.02, 0.01]], ids=["even", "skewed"]
    )
    def test_best_all_gather_returns_the_cheaper_price(self, model, ratios):
        _, time = model.best_all_gather(4e6, ratios)
        assert time == min(
            model.all_gather_padded(4e6, ratios), model.all_gather_grouped(4e6, ratios)
        )

    def test_single_device_collectives_free(self):
        from repro.cluster import ClusterSpec, Machine, device_type

        cluster = ClusterSpec([Machine("m0", device_type("V100"), 1)], group_by_machine=False)
        model = CollectiveCostModel(cluster)
        assert model.all_reduce(1e6) == 0.0
        assert model.all_gather_padded(1e6, [1.0]) == 0.0

    def test_slice_is_nearly_free(self, model):
        slice_time = model.collective_time(CollectiveKind.SLICE, 4e6, [0.25] * 4)
        ag_time = model.collective_time(CollectiveKind.ALL_GATHER, 4e6, [0.25] * 4)
        assert slice_time < ag_time / 100

    def test_effective_bandwidth_inverse_of_time(self, model):
        bw = model.effective_bandwidth(CollectiveKind.ALL_REDUCE, 4e6, [0.25] * 4)
        assert bw == pytest.approx(4e6 / model.all_reduce(4e6))

    def test_reduce_scatter_cheaper_than_all_reduce(self, model):
        ratios = [0.25] * 4
        assert model.reduce_scatter(8e6, ratios) < model.all_reduce(8e6)

    def test_all_to_all_positive(self, model):
        assert model.all_to_all(4e6, [0.25] * 4) > 0

    def test_unknown_kind_rejected(self, model):
        with pytest.raises(ValueError):
            model.collective_time("nope", 1e6, [1.0])  # type: ignore[arg-type]

    @given(nbytes=st.floats(min_value=1e3, max_value=1e9))
    @settings(max_examples=30, deadline=None)
    def test_property_times_nonnegative(self, nbytes):
        model = CollectiveCostModel(heterogeneous_testbed(16))
        ratios = model.cluster.even_ratios()
        for kind in CollectiveKind:
            assert model.collective_time(kind, nbytes, ratios) >= 0.0
