"""Tests for the energy models and the experiment harness."""

import pytest

from repro.bench.driver import WorkloadStats
from repro.bench.experiments import (
    WORKLOAD_NAMES,
    format_table,
    make_system,
    ratio,
    run_cell,
    saturating_workers,
    scaled_requests,
)
from repro.core.iterator import TraversalResult
from repro.energy import (
    energy_per_request_nj,
    measure_energy,
    system_power_watts,
)
from repro.params import DEFAULT_PARAMS


class TestPowerModels:
    def test_pulse_power_scales_with_accelerators(self):
        one = system_power_watts("pulse", DEFAULT_PARAMS, nodes=1)
        four = system_power_watts("pulse", DEFAULT_PARAMS, nodes=4)
        assert four == pytest.approx(4 * one)

    def test_rpc_power_scales_with_workers(self):
        few = system_power_watts("rpc", DEFAULT_PARAMS,
                                 workers_per_node=4)
        many = system_power_watts("rpc", DEFAULT_PARAMS,
                                  workers_per_node=12)
        assert many == pytest.approx(3 * few)

    def test_pulse_draws_less_than_a_saturating_worker_pool(self):
        pulse = system_power_watts("pulse", DEFAULT_PARAMS)
        rpc = system_power_watts("rpc", DEFAULT_PARAMS,
                                 workers_per_node=12)
        assert pulse < rpc / 3

    def test_wimpy_worker_floor(self):
        # The static/uncore floor keeps a wimpy worker near a full one.
        assert (DEFAULT_PARAMS.power.wimpy_worker_watts
                > 0.8 * DEFAULT_PARAMS.power.cpu_worker_watts)

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            system_power_watts("abacus", DEFAULT_PARAMS)

    def test_energy_math(self):
        # 10 W at 1M req/s = 10 uJ per request.
        assert energy_per_request_nj(10.0, 1e6) == pytest.approx(10_000)
        assert energy_per_request_nj(10.0, 0.0) == float("inf")

    def test_measure_energy_report(self):
        report = measure_energy("pulse", DEFAULT_PARAMS, 1e6, nodes=2)
        assert report.power_watts == pytest.approx(60.0)
        assert report.energy_per_request_uj == pytest.approx(60.0)
        assert 1e9 / report.energy_per_request_nj == pytest.approx(
            1e9 / 60_000)


class TestHarness:
    def test_saturating_workers_per_workload(self):
        upc = saturating_workers("rpc", "UPC", DEFAULT_PARAMS)
        tc = saturating_workers("rpc", "TC", DEFAULT_PARAMS)
        assert tc > upc  # compute-heavier iterations need more workers
        wimpy_tc = saturating_workers("rpc-w", "TC", DEFAULT_PARAMS)
        assert wimpy_tc > tc

    def test_scaled_requests_orders_workloads(self):
        values = [scaled_requests(name, 100) for name in WORKLOAD_NAMES]
        assert values[0] >= values[-1]
        assert all(v >= 8 for v in values)

    def test_make_system_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_system("never-heard-of-it")

    def test_cache_rpc_multi_node_rejected(self):
        with pytest.raises(ValueError, match="single-node"):
            make_system("cache+rpc", node_count=2)

    def test_run_cell_end_to_end(self):
        cell = run_cell("pulse", "UPC", 1, requests=10, concurrency=2,
                        workload_kwargs={"num_pairs": 1_000,
                                         "chain_length": 40})
        assert cell.stats.completed == 10
        assert cell.avg_latency_us > 0
        assert cell.energy.power_watts == \
            DEFAULT_PARAMS.power.fpga_watts

    def test_format_table_alignment(self):
        text = format_table(["a", "long-header"],
                            [("x", 1), ("longer-cell", 22)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line.rstrip()) for line in lines[1:2])) == 1

    def test_ratio_guards_zero(self):
        assert ratio(1.0, 0.0) == float("inf")
        assert ratio(4.0, 2.0) == 2.0


class TestWorkloadStats:
    def _stats(self, latencies):
        results = [TraversalResult(value=None, iterations=1,
                                   latency_ns=lat) for lat in latencies]
        return WorkloadStats(
            completed=len(latencies),
            duration_ns=sum(latencies),
            latencies_ns=list(latencies),
            faults=0,
            total_hops=0,
            results=results,
        )

    def test_percentiles_monotonic(self):
        stats = self._stats([float(v) for v in range(1, 101)])
        p50 = stats.percentile_latency_ns(50)
        p90 = stats.percentile_latency_ns(90)
        p99 = stats.percentile_latency_ns(99)
        assert p50 <= p90 <= p99
        assert p50 == pytest.approx(50, abs=2)

    def test_throughput(self):
        stats = self._stats([1e9])  # one request in one second
        assert stats.throughput_per_s == pytest.approx(1.0)

    def test_empty_stats_are_safe(self):
        stats = WorkloadStats(0, 0.0, [], 0, 0, [])
        assert stats.throughput_per_s == 0.0
        assert stats.avg_latency_ns == 0.0
        assert stats.percentile_latency_ns(99) == 0.0
        assert stats.avg_iterations == 0.0
