"""Tests for the cluster model."""

import pytest

from repro.cluster import (
    DEVICE_CATALOG,
    ClusterSpec,
    Machine,
    NetworkSpec,
    a100_p100_pair,
    a100_pair,
    device_type,
    heterogeneous_testbed,
    homogeneous_testbed,
    p100_a100_mixed,
)


class TestDevices:
    def test_catalog_contains_paper_gpus(self):
        for name in ("V100", "P100", "A100"):
            assert name in DEVICE_CATALOG

    def test_lookup_case_insensitive(self):
        assert device_type("v100") is DEVICE_CATALOG["V100"]

    def test_unknown_device_rejected(self):
        with pytest.raises(KeyError):
            device_type("H9000")

    def test_flops_ordering_matches_hardware(self):
        assert device_type("A100").flops > device_type("V100").flops > device_type("P100").flops

    def test_machine_aggregates(self):
        machine = Machine("m", device_type("V100"), num_gpus=8)
        assert machine.total_flops == pytest.approx(8 * device_type("V100").flops)
        assert machine.total_memory == 8 * device_type("V100").memory_bytes

    @pytest.mark.parametrize("name", sorted(DEVICE_CATALOG))
    def test_flops_derate_peak_by_sustained_fraction(self, name):
        # The cost model's flops-per-second is the datasheet peak derated by
        # the device's sustained fraction; nothing else rescales it.
        gpu = device_type(name)
        assert 0.0 < gpu.sustained_fraction < 1.0
        assert gpu.flops == gpu.peak_tflops * 1e12 * gpu.sustained_fraction
        assert gpu.flops < gpu.peak_tflops * 1e12

    def test_virtual_devices_aggregate_their_gpus(self):
        cluster = heterogeneous_testbed(64)
        for device, flops, memory in zip(
            cluster.virtual_devices, cluster.device_flops(), cluster.device_memory()
        ):
            assert flops == device.gpu.flops * device.num_gpus
            assert device.memory_bytes == device.gpu.memory_bytes * device.num_gpus
            assert memory <= device.memory_bytes


class TestClusterSpec:
    def test_heterogeneous_testbed_64(self):
        cluster = heterogeneous_testbed(64)
        assert cluster.num_gpus == 64
        assert cluster.num_devices == 8  # machine-level virtual devices
        gpu_names = {m.gpu.name for m in cluster.machines}
        assert gpu_names == {"V100", "P100"}

    def test_heterogeneous_testbed_machine_mix(self):
        cluster = heterogeneous_testbed(64)
        v100 = sum(1 for m in cluster.machines if m.gpu.name == "V100")
        assert v100 == 2

    def test_homogeneous_testbed(self):
        cluster = homogeneous_testbed(32)
        assert {m.gpu.name for m in cluster.machines} == {"P100"}
        assert cluster.num_devices == 4

    def test_invalid_gpu_count_rejected(self):
        with pytest.raises(ValueError):
            heterogeneous_testbed(13)

    def test_per_gpu_virtual_devices(self):
        cluster = a100_p100_pair()
        assert cluster.num_devices == 4
        assert cluster.num_gpus == 4

    def test_proportional_ratios_favour_fast_devices(self):
        cluster = p100_a100_mixed()
        ratios = cluster.proportional_ratios()
        assert sum(ratios) == pytest.approx(1.0)
        # devices 0,1 are P100, 2,3 are A100
        assert ratios[2] > ratios[0]

    def test_even_ratios(self):
        cluster = a100_pair()
        assert cluster.even_ratios() == [0.25] * 4

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec([])

    def test_describe_mentions_bandwidth(self):
        assert "Gbps" in heterogeneous_testbed(16).describe()

    def test_total_flops_and_memory(self):
        cluster = homogeneous_testbed(16)
        assert cluster.total_flops() == pytest.approx(sum(cluster.device_flops()))
        assert cluster.total_memory() == sum(cluster.device_memory())

    def test_memory_reserve_fraction_shrinks_capacity(self):
        from repro.cluster import ClusterSpec

        full = homogeneous_testbed(16)
        reserved = ClusterSpec(
            full.machines,
            network=full.network,
            group_by_machine=full.group_by_machine,
            memory_reserve_fraction=0.25,
        )
        assert reserved.device_memory() == [int(m * 0.75) for m in full.device_memory()]
        assert reserved.total_memory() == sum(reserved.device_memory())
        # Propagates to the machine groups of a pipeline split.
        groups = reserved.split([1, len(reserved.machines)])
        assert all(g.memory_reserve_fraction == 0.25 for g in groups)
        with pytest.raises(ValueError):
            ClusterSpec(full.machines, memory_reserve_fraction=1.5)

    def test_default_network_matches_paper(self):
        net = NetworkSpec()
        assert net.bandwidth == pytest.approx(10.4e9 / 8)

