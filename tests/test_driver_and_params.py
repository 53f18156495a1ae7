"""Tests for the workload driver's knobs and the parameter bundle."""

import pytest

from repro.bench.driver import run_open_loop, run_workload
from repro.core import PulseCluster
from repro.params import (
    DEFAULT_PARAMS,
    AcceleratorParams,
    CpuParams,
    NetworkParams,
    describe,
    gBps_to_bytes_per_ns,
    gbps_to_bytes_per_ns,
)
from repro.structures import LinkedList


class TestDriver:
    def _cluster_with_list(self, n=40):
        cluster = PulseCluster(node_count=1)
        lst = LinkedList(cluster.memory)
        lst.extend((k, k) for k in range(1, n + 1))
        return cluster, lst.find_iterator()

    def test_warmup_excluded_from_measurement(self):
        cluster, finder = self._cluster_with_list()
        ops = [(finder, (20,))] * 30
        stats = run_workload(cluster, ops, concurrency=2, warmup=10)
        assert stats.completed == 20

    def test_concurrency_clamped_to_operation_count(self):
        cluster, finder = self._cluster_with_list()
        ops = [(finder, (5,))] * 3
        stats = run_workload(cluster, ops, concurrency=64)
        assert stats.completed == 3

    def test_every_operation_runs_exactly_once(self):
        cluster, finder = self._cluster_with_list()
        ops = [(finder, (k,)) for k in range(1, 21)]
        stats = run_workload(cluster, ops, concurrency=7)
        assert sorted(r.value for r in stats.results) == \
            list(range(1, 21))

    def test_results_preserve_operation_order(self):
        cluster, finder = self._cluster_with_list()
        ops = [(finder, (k,)) for k in (3, 1, 2)]
        stats = run_workload(cluster, ops, concurrency=1)
        assert [r.value for r in stats.results] == [3, 1, 2]

    @pytest.mark.parametrize("drive", [
        lambda cluster, ops: run_workload(cluster, ops, concurrency=2,
                                          warmup=10),
        lambda cluster, ops: run_open_loop(cluster, ops, 2e5, warmup=10),
    ], ids=["closed", "open"])
    def test_duration_is_the_measurement_window(self, drive):
        """``duration_ns`` runs from ``begin_measurement`` to the end."""
        cluster, finder = self._cluster_with_list()
        opened = []
        begin = cluster.begin_measurement

        def recorded_begin():
            opened.append(cluster.env.now)
            begin()

        cluster.begin_measurement = recorded_begin
        stats = drive(cluster, [(finder, (20,))] * 30)
        assert len(opened) == 1 and opened[0] > 0
        assert stats.duration_ns == cluster.env.now - opened[0]


class TestParams:
    def test_unit_conversions(self):
        assert gbps_to_bytes_per_ns(100.0) == pytest.approx(12.5)
        assert gBps_to_bytes_per_ns(25.0) == pytest.approx(25.0)

    def test_default_bundle_is_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_PARAMS.accelerator.netstack_ns = 1.0

    def test_with_overrides_replaces_sections(self):
        fast_net = NetworkParams(segment_ns=1.0)
        params = DEFAULT_PARAMS.with_overrides(network=fast_net)
        assert params.network.segment_ns == 1.0
        assert params.accelerator is DEFAULT_PARAMS.accelerator
        # The original is untouched.
        assert DEFAULT_PARAMS.network.segment_ns != 1.0

    def test_describe_summarizes_key_constants(self):
        summary = describe(DEFAULT_PARAMS)
        assert summary["netstack_ns"] == 430.0
        assert summary["t_d_256B_ns"] == pytest.approx(
            DEFAULT_PARAMS.accelerator.memory_access_ns(256))
        assert "cpu_instruction_ns" in summary

    def test_memory_access_monotone_in_size(self):
        acc = AcceleratorParams()
        sizes = [8, 64, 256]
        times = [acc.memory_access_ns(s) for s in sizes]
        assert times == sorted(times)
        # Occupancy is always below the full access time.
        for s in sizes:
            assert acc.occupancy_ns(s) < acc.memory_access_ns(s)

    def test_cpu_clock_sets_instruction_time(self):
        assert CpuParams(clock_ghz=2.0).instruction_ns() == 0.5
        assert DEFAULT_PARAMS.wimpy.instruction_ns() == 1.0

    def test_fig9_calibration_targets(self):
        """The constants reproduce the paper's Fig 9 anchor points."""
        acc = DEFAULT_PARAMS.accelerator
        # Solo 256 B load ~110 ns via the pipeline (+10 ns interconnect
        # hold in the full system = the paper's ~120 ns).
        assert 100 <= acc.memory_access_ns(256) <= 120
        assert acc.netstack_ns == 430.0
        assert acc.scheduler_dispatch_ns == 4.0


class TestClusterHousekeeping:
    def test_node_count_property(self):
        assert PulseCluster(node_count=3).node_count == 3
