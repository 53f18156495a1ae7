"""Tests for workload generators and application builders (Table 2)."""

from types import SimpleNamespace

import pytest

from repro.bench.experiments import WORKLOAD_NAMES, build_workload
from repro.isa import analyze
from repro.mem import GlobalMemory
from repro.params import AcceleratorParams
from repro.structures.btree import LEAF_FLAG
from repro.workloads import (
    TSV_WINDOWS_S,
    UniformKeyGenerator,
    ZipfianKeyGenerator,
    build_tc,
    build_tsv,
    build_upc,
    generate_upmu_trace,
)
from repro.workloads.upmu import NOMINAL_MICROVOLTS, UPMU_SAMPLE_HZ

from tests.helpers import home_of, run_functional

#: Table 2's static eta of each kernel
TABLE2_ETA = {"UPC": 0.06, "TC": 0.79}


def leaf_owners(memory, scan):
    """The owning node of each leaf, in key order, of the B+Tree a
    ``BTreeScanCount`` reads."""
    layout = scan.layout
    addr = scan._root_of()
    node = layout.unpack(memory.read(addr, layout.size))
    while not node["flags"] & LEAF_FLAG:
        addr = node["ptrs"][0]
        node = layout.unpack(memory.read(addr, layout.size))
    owners = []
    while addr:
        owners.append(home_of(memory.addrspace, addr))
        addr = layout.unpack(memory.read(addr, layout.size))["ptrs"][-1]
    return owners


@pytest.fixture
def memory():
    return GlobalMemory(node_count=2, node_capacity=48 << 20)


class TestGenerators:
    def test_uniform_covers_population(self):
        gen = UniformKeyGenerator(list(range(10)), seed=1)
        seen = {gen.next_key() for _ in range(500)}
        assert seen == set(range(10))

    def test_uniform_deterministic_by_seed(self):
        a = UniformKeyGenerator(list(range(100)), seed=5)
        b = UniformKeyGenerator(list(range(100)), seed=5)
        assert [a.next_key() for _ in range(20)] == \
               [b.next_key() for _ in range(20)]

    def test_zipfian_skews_to_head(self):
        gen = ZipfianKeyGenerator(list(range(1000)), seed=2)
        draws = [gen.next_key() for _ in range(2000)]
        head = sum(1 for d in draws if d < 100)
        assert head > len(draws) * 0.5  # top 10% gets most traffic

    def test_zipfian_stays_in_range(self):
        gen = ZipfianKeyGenerator(list(range(50)), seed=3)
        assert all(0 <= gen.next_key() < 50 for _ in range(500))

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            UniformKeyGenerator([])
        with pytest.raises(ValueError):
            ZipfianKeyGenerator([])


class TestUpmuTrace:
    def test_sample_rate(self):
        trace = generate_upmu_trace(duration_s=10, seed=0)
        assert len(trace) == 10 * UPMU_SAMPLE_HZ

    def test_timestamps_monotonic_and_regular(self):
        trace = generate_upmu_trace(duration_s=2, seed=0)
        gaps = {b - a for (a, _), (b, _) in zip(trace, trace[1:])}
        assert gaps == {1_000_000 // UPMU_SAMPLE_HZ}

    def test_values_near_nominal(self):
        trace = generate_upmu_trace(duration_s=5, seed=1)
        for _, value in trace:
            assert abs(value - NOMINAL_MICROVOLTS) < \
                   0.05 * NOMINAL_MICROVOLTS

    def test_deterministic_by_seed(self):
        assert generate_upmu_trace(2, seed=9) == \
               generate_upmu_trace(2, seed=9)
        assert generate_upmu_trace(2, seed=1) != \
               generate_upmu_trace(2, seed=2)

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            generate_upmu_trace(0)


class TestUpcWorkload:
    def test_build_and_answers(self, memory):
        upc = build_upc(memory, node_count=2, num_pairs=2_000,
                        chain_length=50, requests=20, seed=0)
        for index, (iterator, args) in enumerate(upc.operations[:5]):
            result = run_functional(iterator, memory.read, *args)
            assert result.value == upc.expected[index]

    def test_average_iterations_near_half_chain(self, memory):
        upc = build_upc(memory, node_count=1, num_pairs=2_000,
                        chain_length=100, requests=60, seed=1)
        iterations = []
        for iterator, args in upc.operations:
            iterations.append(
                run_functional(iterator, memory.read, *args).iterations)
        mean = sum(iterations) / len(iterations)
        assert 35 <= mean <= 70  # ~half the chain plus the sentinel

    def test_eta_matches_table2(self, memory):
        upc = build_upc(memory, node_count=1, num_pairs=500,
                        chain_length=50, requests=1)
        analysis = analyze(upc.operations[0][0].program,
                           AcceleratorParams())
        assert analysis.eta == pytest.approx(TABLE2_ETA["UPC"], abs=0.03)

    def test_partitioned_across_nodes(self, memory):
        upc = build_upc(memory, node_count=2, num_pairs=1_000,
                        chain_length=50, requests=1)
        finder = upc.operations[0][0]
        nodes_used = {home_of(memory.addrspace, finder.init(key)[0])
                      for key in range(1_000)}     # every bucket's head
        assert nodes_used == {0, 1}


class TestTcWorkload:
    def test_scan_answers(self, memory):
        tc = build_tc(memory, node_count=1, num_pairs=3_000,
                      scan_limit=60, requests=10, seed=0)
        for index, (iterator, args) in enumerate(tc.operations[:3]):
            count, checksum = run_functional(iterator, 
                memory.read, *args).value
            start = tc.expected[index]
            assert count >= 60
            assert checksum == sum(range(start, start + count)) % 2**64

    def test_iterations_near_table2(self, memory):
        tc = build_tc(memory, node_count=1, num_pairs=20_000,
                      requests=15, seed=2)
        iterations = [
            run_functional(it, memory.read, *args).iterations
            for it, args in tc.operations
        ]
        mean = sum(iterations) / len(iterations)
        assert tc.table2_iterations * 0.7 <= mean <= \
               tc.table2_iterations * 1.3

    def test_eta_matches_table2(self, memory):
        tc = build_tc(memory, node_count=1, num_pairs=2_000, requests=1)
        analysis = analyze(tc.operations[0][0].program,
                           AcceleratorParams())
        assert analysis.eta == pytest.approx(TABLE2_ETA["TC"], abs=0.1)

    def test_interleaved_placement_crosses_nodes(self, memory):
        tc = build_tc(memory, node_count=2, num_pairs=4_000,
                      requests=1, seed=0)
        owners = leaf_owners(memory, tc.operations[0][0])
        crossings = sum(1 for a, b in zip(owners, owners[1:]) if a != b)
        fraction = crossings / max(1, len(owners) - 1)
        # Section 7.1: 30-40% of hops are inter-node on two nodes.
        assert 0.25 <= fraction <= 0.45

    def test_partitioned_placement_rarely_crosses(self, memory):
        tc = build_tc(memory, node_count=2, num_pairs=4_000,
                      requests=1, seed=0, partitioned=True)
        owners = leaf_owners(memory, tc.operations[0][0])
        crossings = sum(1 for a, b in zip(owners, owners[1:]) if a != b)
        assert crossings <= 1


class TestTsvWorkload:
    def test_aggregation_answers(self, memory):
        tsv = build_tsv(memory, node_count=1, window_s=7.5,
                        duration_s=120, requests=12, seed=0)
        for index, (iterator, args) in enumerate(tsv.operations):
            result = run_functional(iterator, memory.read, *args)
            expected = tsv.expected[index]
            if expected is None:
                assert result.value is None
            else:
                assert result.value == pytest.approx(expected)

    def test_iteration_ladder_matches_window_sizes(self, memory):
        means = {}
        for window in (7.5, 30.0):
            tsv = build_tsv(memory, node_count=1, window_s=window,
                            duration_s=240, requests=8, seed=1)
            iterations = [
                run_functional(it, memory.read, *args).iterations
                for it, args in tsv.operations
            ]
            means[window] = sum(iterations) / len(iterations)
        # 4x the window -> ~4x the traversal (Table 2's ladder).
        assert 3.0 <= means[30.0] / means[7.5] <= 5.0

    def test_iterations_near_table2(self, memory):
        tsv = build_tsv(memory, node_count=1, window_s=7.5,
                        duration_s=120, requests=10, seed=3)
        iterations = [
            run_functional(it, memory.read, *args).iterations
            for it, args in tsv.operations
        ]
        mean = sum(iterations) / len(iterations)
        assert tsv.table2_iterations * 0.7 <= mean <= \
               tsv.table2_iterations * 1.4

    def test_window_longer_than_trace_rejected(self, memory):
        with pytest.raises(ValueError):
            build_tsv(memory, node_count=1, window_s=60,
                      duration_s=30)


class TestStandardWorkloads:
    def test_six_columns(self):
        system = SimpleNamespace(
            memory=GlobalMemory(node_count=1, node_capacity=48 << 20))
        workloads = [build_workload(system, name, 1, requests=2)
                     for name in WORKLOAD_NAMES]
        names = [w.name for w in workloads]
        assert names == ["UPC", "TC", "TSV-7.5s", "TSV-15s",
                         "TSV-30s", "TSV-60s"]
        assert len(TSV_WINDOWS_S) == 4
