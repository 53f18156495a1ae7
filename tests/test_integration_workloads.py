"""Integration: the paper's workloads through the full simulated rack,
with answers checked against the builders' precomputed references."""

import pytest

from repro.bench.driver import run_workload
from repro.bench.experiments import make_system
from repro.workloads import build_tc, build_tsv, build_upc


def check_upc(workload, stats):
    for index, result in enumerate(stats.results):
        assert result.value == workload.expected[index]
        assert result.ok


def check_tc(workload, stats):
    for index, result in enumerate(stats.results):
        count, checksum = result.value
        start = workload.expected[index]
        assert count >= 60
        assert checksum == sum(range(start, start + count)) % 2**64


def check_tsv(workload, stats):
    for index, result in enumerate(stats.results):
        expected = workload.expected[index]
        if expected is None:
            assert result.value is None
        else:
            assert result.value == pytest.approx(expected)


class TestPulseEndToEnd:
    def test_upc_on_two_nodes(self):
        system = make_system("pulse", node_count=2)
        upc = build_upc(system.memory, 2, num_pairs=3_000,
                        chain_length=60, requests=25, seed=4)
        stats = run_workload(system, upc.operations, concurrency=4)
        check_upc(upc, stats)
        assert stats.total_hops == 0  # partitioned by key

    def test_tc_scan_limit_60_on_two_nodes(self):
        system = make_system("pulse", node_count=2)
        tc = build_tc(system.memory, 2, num_pairs=5_000, scan_limit=60,
                      requests=20, seed=4)
        stats = run_workload(system, tc.operations, concurrency=4)
        check_tc(tc, stats)
        assert stats.total_hops > 0  # interleaved placement crosses

    def test_tsv_window_on_two_nodes(self):
        system = make_system("pulse", node_count=2)
        tsv = build_tsv(system.memory, 2, window_s=7.5, duration_s=120,
                        requests=16, seed=4)
        stats = run_workload(system, tsv.operations, concurrency=4)
        check_tsv(tsv, stats)


class TestBaselinesEndToEnd:
    @pytest.mark.parametrize("system_name", ["rpc", "rpc-w", "cache"])
    def test_upc_answers_match(self, system_name):
        system = make_system(system_name, node_count=1)
        upc = build_upc(system.memory, 1, num_pairs=2_000,
                        chain_length=50, requests=15, seed=5)
        stats = run_workload(system, upc.operations, concurrency=4)
        check_upc(upc, stats)

    @pytest.mark.parametrize("system_name", ["rpc", "cache"])
    def test_tsv_answers_match(self, system_name):
        system = make_system(system_name, node_count=1)
        tsv = build_tsv(system.memory, 1, window_s=7.5, duration_s=90,
                        requests=10, seed=5)
        stats = run_workload(system, tsv.operations, concurrency=4)
        check_tsv(tsv, stats)

    def test_cache_rpc_upc_answers_match(self):
        system = make_system("cache+rpc", node_count=1)
        upc = build_upc(system.memory, 1, num_pairs=2_000,
                        chain_length=50, requests=15, seed=6)
        stats = run_workload(system, upc.operations, concurrency=4)
        check_upc(upc, stats)

    def test_rpc_multi_node_tc_answers_match(self):
        system = make_system("rpc", node_count=2)
        tc = build_tc(system.memory, 2, num_pairs=5_000, scan_limit=60,
                      requests=15, seed=6)
        stats = run_workload(system, tc.operations, concurrency=4)
        check_tc(tc, stats)
        assert stats.total_hops > 0


class TestAccModeEndToEnd:
    def test_pulse_acc_matches_pulse_answers(self):
        results = {}
        for name in ("pulse", "pulse-acc"):
            system = make_system(name, node_count=2)
            tc = build_tc(system.memory, 2, num_pairs=4_000,
                          scan_limit=50, requests=12, seed=7)
            stats = run_workload(system, tc.operations, concurrency=2)
            results[name] = ([r.value for r in stats.results],
                             stats.avg_latency_ns)
        assert results["pulse"][0] == results["pulse-acc"][0]
        assert results["pulse-acc"][1] > results["pulse"][1]


class TestDeterminism:
    def test_same_seed_same_simulation(self):
        def run_once():
            system = make_system("pulse", node_count=2, seed=11)
            tc = build_tc(system.memory, 2, num_pairs=3_000,
                          scan_limit=40, requests=10, seed=11)
            stats = run_workload(system, tc.operations, concurrency=4)
            return (stats.latencies_ns, stats.duration_ns,
                    [r.value for r in stats.results])

        assert run_once() == run_once()
