"""Tests for the energy models and the experiment harness."""

import pytest

from repro.bench import experiments
from repro.bench.driver import WorkloadStats
from repro.bench.experiments import (
    SYSTEMS,
    WORKLOAD_NAMES,
    Cell,
    format_table,
    make_system,
    run_cells,
    saturating_workers,
    scaled_requests,
)
from repro.core.cluster import Rack
from repro.core.iterator import TraversalResult
from repro.energy import energy_per_request_nj, measure_energy
from repro.params import DEFAULT_PARAMS
from tests.test_baseline_identity import _digest

#: each system's serving watts on a one-node rack with its own default
#: pool, exactly as the name-dispatched power model charged them
SERVING_WATTS = {"pulse": 30.0, "pulse-acc": 30.0, "cache": 66.0,
                 "rpc": 198.0, "rpc-w": 210.0, "cache+rpc": 198.0}


class TestPowerModels:
    @pytest.mark.parametrize("name", SYSTEMS)
    def test_serving_watts_are_pinned(self, name):
        assert make_system(name).serving_watts() == SERVING_WATTS[name]

    def test_pulse_power_scales_with_accelerators(self):
        one = make_system("pulse", node_count=1).serving_watts()
        four = make_system("pulse", node_count=4).serving_watts()
        assert four == 4 * one == 120.0

    def test_rpc_power_scales_with_workers(self):
        few = make_system("rpc", workers_per_node=4).serving_watts()
        many = make_system("rpc", workers_per_node=12).serving_watts()
        assert many == pytest.approx(3 * few)
        assert make_system("rpc", node_count=2).serving_watts() == 396.0

    def test_pulse_draws_less_than_a_saturating_worker_pool(self):
        pulse = make_system("pulse").serving_watts()
        rpc = make_system("rpc", workers_per_node=12).serving_watts()
        assert pulse < rpc / 3

    def test_wimpy_worker_floor(self):
        # The static/uncore floor keeps a wimpy worker near a full one.
        assert (DEFAULT_PARAMS.power.wimpy_worker_watts
                > 0.8 * DEFAULT_PARAMS.power.cpu_worker_watts)

    def test_unknown_system_rejected(self):
        # A rack that does not say what hardware serves has no power.
        with pytest.raises(NotImplementedError):
            measure_energy(Rack(), 1e6)

    def test_energy_math(self):
        # 10 W at 1M req/s = 10 uJ per request.
        assert energy_per_request_nj(10.0, 1e6) == pytest.approx(10_000)
        assert energy_per_request_nj(10.0, 0.0) == float("inf")

    def test_measure_energy_report(self):
        report = measure_energy(make_system("pulse", node_count=2), 1e6)
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

    def test_every_tsv_window_sizes_pools_like_the_others(self):
        # Every TSV window runs the same aggregation kernels, so a window
        # outside WORKLOAD_NAMES gets the pool TSV-7.5s gets.
        for system, workers in (("rpc", 22), ("rpc-w", 31)):
            for window in ("TSV-5s", "TSV-7.5s", "TSV-120s"):
                assert saturating_workers(system, window,
                                          DEFAULT_PARAMS) == workers

    @pytest.mark.parametrize("system", ["pulse", "rpc"])
    def test_unknown_workload_fails_before_a_rack_is_built(
            self, system, monkeypatch):
        def build(*_args, **_kwargs):
            raise AssertionError("a rack was built")

        monkeypatch.setattr(experiments, "make_system", build)
        with pytest.raises(ValueError, match="unknown workload"):
            Cell(system, "PageRank", requests=1).run()

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
        cell = Cell("pulse", "UPC", 1, requests=10, concurrency=2,
                    workload_options={"num_pairs": 1_000,
                                      "chain_length": 40}).run()
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


SMALL_UPC = {"num_pairs": 1_000, "chain_length": 40}


class TestCellRunner:
    """``run_cells`` fans the keys it has not seen out over forked
    workers: a worker's result is the in-process run's, and a key runs
    once per process."""

    CELLS = {
        "pulse": Cell("pulse", "UPC", 1, 12, workload_options=SMALL_UPC),
        "rpc": Cell("rpc", "TC", 2, 6, workload_options={
            "num_pairs": 2_000, "scan_limit": 40}),
        "cache": Cell("cache", "UPC", 1, 6, workload_options=SMALL_UPC),
        "open": Cell("pulse", "UPC", 1, 24, offered_load_per_s=8e6,
                     system_options={"batch_size": 8},
                     workload_options=SMALL_UPC),
    }

    def test_fanned_out_cells_equal_serial_runs(self, monkeypatch):
        monkeypatch.setattr(experiments, "_RESULTS", {})
        fanned = run_cells(self.CELLS)
        for label, cell in self.CELLS.items():
            stats, serial = fanned[label].stats, cell.run().stats
            assert stats.completed == serial.completed > 0, label
            assert _digest(stats.results) == _digest(serial.results), label
            assert stats.latencies_ns == serial.latencies_ns, label
            assert stats.metrics == serial.metrics, label

    def test_a_key_asked_for_twice_runs_once(self, monkeypatch, tmp_path):
        monkeypatch.setattr(experiments, "_RESULTS", {})
        runs, drive = tmp_path / "runs", experiments.run_workload

        def logged(system, operations, concurrency):
            with open(runs, "a") as log:   # workers are forked processes
                log.write("run\n")
            return drive(system, operations, concurrency=concurrency)

        monkeypatch.setattr(experiments, "run_workload", logged)
        cell = self.CELLS["pulse"]
        same = Cell("pulse", "UPC", 1, 12, workload_options=dict(
            reversed(list(SMALL_UPC.items()))))
        assert same == cell and hash(same) == hash(cell)
        first = run_cells({"a": cell, "b": same})
        again = run_cells({"c": cell})
        assert first["a"] is first["b"] is again["c"]
        assert runs.read_text() == "run\n"


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
