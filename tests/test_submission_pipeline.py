"""Async submission pipeline: PendingTraversal, doorbell batching,
admission-control backpressure, and the one rack contract every
compared system shares."""

import pytest

from repro.baselines.aifm import CacheRpcSystem
from repro.baselines.cache import CacheSystem
from repro.baselines.rpc import RpcSystem
from repro.bench.driver import run_open_loop
from repro.core import PulseCluster
from repro.core.cluster import Rack
from repro.core.client import PendingTraversal
from repro.core.iterator import FaultInfo, TraversalResult
from repro.obs.metrics import MetricError
from repro.params import (
    AcceleratorParams,
    SystemParams,
    US,
)
from repro.sim.engine import Timeout
from repro.structures import BPlusTree, HashTable, LinkedList

from tests.helpers import counter_value, lossy_cluster


def build_table(cluster, n=200):
    table = HashTable(cluster.memory, buckets=8, value_bytes=8)
    for key in range(n):
        table.insert(key, (key * 7).to_bytes(8, "little"))
    return table


class TestDecidedRacesLeaveNothing:
    def test_a_drained_burst_leaves_no_armed_timer(self):
        # Every request races its reply against a 2 ms end-to-end timer.
        # The reply wins each race, so the timer is cancelled and the
        # heap sheds it: what is left after the drain is a handful of
        # dead entries, not one live timer per recent request.
        cluster = PulseCluster(node_count=1, batch_size=64)
        chain = LinkedList(cluster.memory)
        chain.extend([(k, k * 3 + 1) for k in range(48)])
        tree = BPlusTree(cluster.memory, fanout=8)
        for k in range(48):
            tree.insert(k, k * 7 + 3)
        mix = [(chain.find_iterator(), (i % 48,)) if i % 2 else
               (tree.lookup_iterator(), (i % 48,)) for i in range(2_000)]
        env = cluster.env
        pending = cluster.submit_many(mix)
        env.run(until=env.all_of([p._process for p in pending]))
        assert all(p.result.ok for p in pending)
        queue = env._queue
        assert len(queue) <= 64
        assert not [entry for entry in queue
                    if isinstance(entry[3], Timeout) and entry[3].callbacks]


class TestPendingTraversal:
    def test_submit_returns_immediately(self):
        cluster = PulseCluster(node_count=1)
        table = build_table(cluster)
        pending = cluster.submit(table.find_iterator(), 3)
        assert isinstance(pending, PendingTraversal)
        assert not pending.done
        with pytest.raises(RuntimeError):
            _ = pending.result

    def test_result_available_after_run(self):
        cluster = PulseCluster(node_count=1)
        table = build_table(cluster)
        pending = cluster.submit(table.find_iterator(), 5)
        cluster.env.run()
        assert pending.done
        assert int.from_bytes(pending.result.value, "little") == 35

    def test_many_in_flight_all_complete(self):
        cluster = PulseCluster(node_count=1)
        table = build_table(cluster)
        finder = table.find_iterator()
        pendings = [cluster.submit(finder, key) for key in range(64)]
        # Submission processes start at the next simulation step.
        def in_flight():
            gauges = cluster.metrics_snapshot()["gauges"]
            return gauges["client0.client.in_flight"]

        cluster.env.run(until=1.0)
        assert in_flight() == 64
        cluster.env.run()
        assert in_flight() == 0
        for key, pending in enumerate(pendings):
            assert int.from_bytes(pending.result.value,
                                  "little") == key * 7

    def test_traverse_is_submit_and_wait(self):
        cluster = PulseCluster(node_count=1)
        table = build_table(cluster)
        result = cluster.run_traversal(table.find_iterator(), 9)
        assert isinstance(result, TraversalResult)
        assert int.from_bytes(result.value, "little") == 63


class TestDoorbellBatching:
    def test_batched_results_match_unbatched(self):
        expected = None
        for batch_size in (1, 8):
            cluster = PulseCluster(node_count=2, batch_size=batch_size)
            table = build_table(cluster)
            finder = table.find_iterator()
            pendings = [cluster.submit(finder, key) for key in range(40)]
            cluster.env.run()
            values = [int.from_bytes(p.result.value, "little")
                      for p in pendings]
            if expected is None:
                expected = values
            else:
                assert values == expected

    def test_full_batches_recorded_in_occupancy(self):
        cluster = PulseCluster(node_count=1, batch_size=8)
        table = build_table(cluster)
        finder = table.find_iterator()
        for key in range(32):
            cluster.submit(finder, key)
        cluster.env.run()
        hist = cluster.registry.histogram("client0.client.batch_occupancy")
        assert hist.count >= 4
        assert hist.max == 8.0
        # Far fewer frames than requests left the client NIC.
        assert counter_value(cluster, "net.client0.tx_messages") < 32

    def test_batch_size_one_sends_plain_requests(self):
        cluster = PulseCluster(node_count=1, batch_size=1)
        table = build_table(cluster)
        cluster.submit(table.find_iterator(), 1)
        cluster.env.run()
        assert counter_value(cluster, "switch.batches_routed") == 0

    def test_switch_counts_and_splits_batches(self):
        cluster = PulseCluster(node_count=2, batch_size=8)
        # Two lists pinned to different memory nodes: a batch mixing
        # finds on both must be split by owner at the switch.
        lists = [LinkedList(cluster.memory, placement=lambda _o, n=n: n)
                 for n in range(2)]
        for lst in lists:
            lst.extend((k, k * 5) for k in range(1, 5))
        pendings = [cluster.submit(lists[i % 2].find_iterator(), 2)
                    for i in range(8)]
        cluster.env.run()
        for pending in pendings:
            assert pending.result.value == 10
        assert counter_value(cluster, "switch.batches_routed") >= 1
        assert counter_value(cluster, "switch.batch_splits") >= 1

    def test_flush_timer_sends_partial_batch(self):
        cluster = PulseCluster(node_count=1, batch_size=8,
                               flush_ns=1.0 * US)
        table = build_table(cluster)
        finder = table.find_iterator()
        pendings = [cluster.submit(finder, key) for key in range(3)]
        cluster.env.run()
        for pending in pendings:
            assert pending.result.ok
        assert counter_value(
            cluster, "client0.client.batch_timer_flushes") >= 1
        hist = cluster.registry.histogram("client0.client.batch_occupancy")
        assert hist.max <= 3.0

    def test_timer_after_inline_flush_is_empty_noop(self):
        cluster = PulseCluster(node_count=1, batch_size=2)
        table = build_table(cluster)
        finder = table.find_iterator()
        # Two submissions at t=0: the first arms the timer, the second
        # fills the batch and flushes inline; the timer later finds an
        # empty pending list.
        cluster.submit(finder, 1)
        cluster.submit(finder, 2)
        cluster.env.run()
        assert counter_value(
            cluster, "client0.client.batch_flushes") == 1
        assert counter_value(
            cluster, "client0.client.batch_empty_flushes") >= 1
        assert counter_value(
            cluster, "client0.client.batch_timer_flushes") == 0

    def test_lost_batch_recovers_via_retransmission(self):
        cluster = lossy_cluster(0.3, 300.0 * US, node_count=1,
                                batch_size=4, seed=7)
        table = build_table(cluster)
        finder = table.find_iterator()
        pendings = [cluster.submit(finder, key) for key in range(16)]
        cluster.env.run()
        for key, pending in enumerate(pendings):
            assert int.from_bytes(pending.result.value,
                                  "little") == key * 7
        assert counter_value(cluster, "client0.client.retransmissions") > 0


class TestAdmissionControl:
    def overload_cluster(self, **kwargs):
        # One workspace and a one-deep admission queue: any burst NACKs.
        params = SystemParams(accelerator=AcceleratorParams(
            workspaces_per_core=1,
            admission_queue_depth=1))
        return PulseCluster(node_count=1, params=params,
                            cores_per_accelerator=1, **kwargs)

    def test_burst_is_nacked_then_completes(self):
        cluster = self.overload_cluster()
        lst = LinkedList(cluster.memory)
        lst.extend((k, k * 3) for k in range(1, 17))
        finder = lst.find_iterator()
        pendings = [cluster.submit(finder, 16) for _ in range(24)]
        cluster.env.run()
        for pending in pendings:
            assert pending.result.value == 48
        assert counter_value(cluster, "mem0.acc.admission_nacks") > 0
        assert counter_value(
            cluster, "client0.client.admission_retries") > 0

    def test_no_nacks_under_serial_load(self):
        cluster = self.overload_cluster()
        table = build_table(cluster)
        for key in range(20):
            result = cluster.run_traversal(table.find_iterator(), key)
            assert result.ok
        assert counter_value(cluster, "mem0.acc.admission_nacks") == 0
        assert counter_value(
            cluster, "client0.client.admission_retries") == 0

    def test_queue_depth_histogram_sampled(self):
        cluster = self.overload_cluster()
        table = build_table(cluster)
        finder = table.find_iterator()
        for key in range(24):
            cluster.submit(finder, key)
        cluster.env.run()
        hist = cluster.registry.histogram("mem0.acc.queue_depth")
        assert hist.count > 0

    def test_open_loop_driver_overload(self):
        cluster = self.overload_cluster()
        lst = LinkedList(cluster.memory)
        lst.extend((k, k) for k in range(1, 17))
        operations = [(lst.find_iterator(), (16,))] * 48
        stats = run_open_loop(cluster, operations,
                              offered_load_per_s=5e6, seed=3)
        assert stats.completed + stats.lost == 48
        assert stats.completed > 0
        assert stats.max_in_flight > 1
        assert stats.offered_load_per_s == 5e6


class TestTraversalBackendProtocol:
    """Every compared system is a :class:`Rack`: one assembly, one
    measurement contract, one ``run_traversal``."""

    def test_all_systems_satisfy_protocol(self):
        systems = [
            PulseCluster(node_count=1),
            RpcSystem(node_count=1),
            RpcSystem(node_count=1, wimpy=True),
            CacheSystem(node_count=1),
            CacheRpcSystem(),
        ]
        for system in systems:
            assert isinstance(system, Rack)
            # Each system overrides traverse and nothing of the contract
            # beyond what pulse's clients and sharding change.
            assert type(system).traverse is not Rack.traverse
            for name in ("memory_bandwidth_utilization",
                         "network_bandwidth_utilization",
                         "run_workload"):
                assert getattr(type(system), name) is getattr(Rack, name)
        pulse, rpc, _rpc_w, cache, _cache_rpc = systems
        for baseline in systems[1:]:
            assert type(baseline).run_traversal is Rack.run_traversal
            # The TCAM size is pulse's option only.
            with pytest.raises(TypeError):
                type(baseline)(tcam_capacity=2)
        assert pulse.workers_per_node == 1
        assert rpc.workers_per_node == rpc.servers[0].workers.capacity
        assert cache.workers_per_node == cache.fault_unit.capacity == 4

    def test_pulse_run_traversal_keeps_client0(self):
        """A one-off traversal runs on client0 and leaves the
        round-robin of submit where it was."""
        cluster = PulseCluster(node_count=1, client_count=2)
        table = HashTable(cluster.memory, buckets=8, value_bytes=8)
        table.insert(4, (44).to_bytes(8, "little"))
        for _ in range(3):
            cluster.run_traversal(table.find_iterator(), 4)
        assert cluster._next_client == 0
        counters = cluster.metrics_snapshot()["counters"]
        assert counters["client0.client.traversals"] == 3
        assert counters.get("client1.client.traversals", 0) == 0

    def test_missing_served_bytes_counter_raises(self):
        system = RpcSystem(node_count=1)
        system.served_bytes = "rpc.no_such_counter"
        with pytest.raises(MetricError):
            system.memory_bandwidth_utilization()

    def test_baseline_run_traversal(self):
        system = CacheSystem(node_count=1)
        table = HashTable(system.memory, buckets=8, value_bytes=8)
        table.insert(4, (44).to_bytes(8, "little"))
        result = system.run_traversal(table.find_iterator(), 4)
        assert int.from_bytes(result.value, "little") == 44
        assert not result.offloaded
        counters = system.metrics_snapshot()["counters"]
        assert counters["client0.client.traversals"] == 1
        assert counters["mem0.paging.bytes_served"] > 0

    def test_baseline_submit_returns_pending(self):
        system = RpcSystem(node_count=1)
        table = HashTable(system.memory, buckets=8, value_bytes=8)
        table.insert(4, (44).to_bytes(8, "little"))
        pending = system.submit(table.find_iterator(), 4)
        assert isinstance(pending, PendingTraversal)
        system.env.run()
        assert int.from_bytes(pending.result.value, "little") == 44


class TestFaultInfo:
    def test_ok_result_has_no_fault(self):
        result = TraversalResult(value=1, iterations=2, latency_ns=3.0)
        assert result.ok
        assert result.fault is None

    def test_fault_info_fields(self):
        fault = FaultInfo(reason="bad pointer", kind="translation")
        result = TraversalResult(value=None, iterations=0,
                                 latency_ns=1.0, fault=fault)
        assert not result.ok
        assert result.fault.kind == "translation"
        assert str(result.fault) == "bad pointer"

    def test_end_to_end_fault_is_structured(self):
        cluster = PulseCluster(node_count=1)
        lst = LinkedList(cluster.memory)
        lst.append(1, 10)
        head = lst.head
        # Corrupt the next pointer to an unmapped address.
        node = cluster.memory.read(head, 24)
        cluster.memory.write(head, node[:16]
                             + (0xDEAD_BEEF_0000).to_bytes(8, "little"))
        result = cluster.run_traversal(lst.find_iterator(), 999)
        assert not result.ok
        assert isinstance(result.fault, FaultInfo)
        assert result.fault.kind == "remote"
        assert result.fault.reason
