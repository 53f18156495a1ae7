"""Failure injection across systems: lossy networks, corrupt pointers,
TCAM pressure, and resource exhaustion."""

import pytest

from repro.baselines import CacheSystem, RpcSystem
from repro.core import PulseCluster
from repro.mem import AllocationError, GlobalMemory
from repro.params import SystemParams
from repro.structures import HashTable, LinkedList

from tests.helpers import counter_value, lossy_cluster, with_memory


class TestLossyNetworks:
    def test_multi_node_traversal_survives_light_loss(self):
        # A 20-hop inter-node traversal crosses the fabric ~22 times per
        # attempt, so only light loss is end-to-end recoverable --
        # that is a *property* of retry-from-the-client reliability, not
        # a bug (per-hop reliability would be a switch extension).
        cluster = lossy_cluster(0.02, node_count=2, seed=1)
        lst = LinkedList(cluster.memory,
                         placement=lambda o: o % 2)
        lst.extend((k, k * 5) for k in range(1, 21))
        finder = lst.find_iterator()
        for key in range(1, 21):
            assert cluster.run_traversal(finder, key).value == key * 5
        assert counter_value(cluster, "net.dropped_messages") > 0

    def test_single_node_traversal_survives_heavy_loss(self):
        cluster = lossy_cluster(0.2, node_count=1, seed=2)
        lst = LinkedList(cluster.memory)
        lst.extend((k, k * 5) for k in range(1, 21))
        finder = lst.find_iterator()
        for key in range(1, 21):
            assert cluster.run_traversal(finder, key).value == key * 5
        assert counter_value(cluster, "client0.client.retransmissions") > 0

    def test_duplicate_responses_do_not_corrupt_results(self):
        # Loss forces retransmissions whose duplicates race the
        # originals; every result must still be exact.
        cluster = lossy_cluster(0.15, node_count=1, seed=9)
        table = HashTable(cluster.memory, buckets=4, value_bytes=8)
        for key in range(50):
            table.insert(key, (key + 7).to_bytes(8, "little"))
        finder = table.find_iterator()
        for key in range(0, 50, 3):
            result = cluster.run_traversal(finder, key)
            assert int.from_bytes(result.value, "little") == key + 7

    def test_zero_loss_means_zero_retransmissions(self):
        cluster = PulseCluster(node_count=1)
        lst = LinkedList(cluster.memory)
        lst.extend((k, k) for k in range(1, 11))
        finder = lst.find_iterator()
        for key in range(1, 11):
            cluster.run_traversal(finder, key)
        assert counter_value(cluster, "client0.client.retransmissions") == 0
        assert counter_value(cluster, "net.dropped_messages") == 0


class TestCorruptPointers:
    def test_pulse_faults_cleanly_on_wild_pointer(self):
        cluster = PulseCluster(node_count=2)
        lst = LinkedList(cluster.memory)
        addrs = [lst.append(k, k) for k in range(1, 6)]
        # Corrupt a mid-chain next pointer to a wild in-rack address
        # that was never allocated.
        next_offset = lst.layout.offset("next")
        wild = cluster.memory.addrspace.range_of(1)[1] - 8
        cluster.memory.nodes[0].memory.write(
            addrs[2] - cluster.memory.addrspace.range_of(0)[0]
            + next_offset,
            wild.to_bytes(8, "little"))
        result = cluster.run_traversal(lst.find_iterator(), 5)
        assert not result.ok
        assert "invalid pointer" in result.fault.reason

    def test_rpc_faults_cleanly_on_wild_pointer(self):
        rpc = RpcSystem(node_count=1)
        lst = LinkedList(rpc.memory)
        lst.extend((k, k) for k in range(1, 4))
        finder = lst.find_iterator()
        lst.head = 0xBAD_0000
        process = rpc.env.process(rpc.traverse(finder, 1))
        result = rpc.env.run(until=process)
        assert not result.ok

    def test_cycle_terminates_via_iteration_budget(self):
        from repro.params import AcceleratorParams
        params = SystemParams(
            accelerator=AcceleratorParams(max_iterations=64))
        cluster = PulseCluster(node_count=1, params=params)
        lst = LinkedList(cluster.memory)
        a = lst.append(1, 1)
        b = lst.append(2, 2)
        # b -> a: a cycle that never contains the key.
        cluster.memory.write_u64(b + lst.layout.offset("next"), a)
        finder = lst.find_iterator()

        # The client keeps continuing ITER_LIMIT responses; guard with a
        # wall-clock bound by running a limited number of continuations.
        process = cluster.env.process(
            cluster.clients[0].traverse(finder, 99))
        # Run at most 2 ms simulated; the traversal must still be
        # cycling (the system stays live, no crash).
        cluster.env.run(until=2_000_000)
        assert not process.triggered  # still continuing, not wedged/crashed


class TestResourcePressure:
    def test_bump_allocation_keeps_tcam_tiny(self):
        # The allocator grows each node's region contiguously, so the
        # range entries coalesce: even thousands of allocations need a
        # single TCAM entry per node -- the scalability argument for
        # range-based translation (section 4.2.1).
        gm = GlobalMemory(node_count=2, node_capacity=1 << 20,
                          tcam_capacity=2)
        for i in range(2_000):
            gm.alloc(64, preferred_node=i % 2)
        assert len(gm.nodes[0].table) == 1
        assert len(gm.nodes[1].table) == 1

    def test_node_memory_exhaustion(self):
        gm = GlobalMemory(node_count=1, node_capacity=4096)
        with pytest.raises(AllocationError):
            for _ in range(100):
                gm.alloc(256)

    def test_cache_system_with_one_page_cache(self):
        cache = CacheSystem(node_count=1, params=with_memory(cache_bytes=4096))
        lst = LinkedList(cache.memory)
        lst.extend((k, k) for k in range(1, 200))
        finder = lst.find_iterator()
        process = cache.env.process(cache.traverse(finder, 199))
        result = cache.env.run(until=process)
        assert result.value == 199
        assert cache.cache.capacity == 1
