"""Focused tests on accelerator, switch, and client internals."""

import pytest

from repro.bench.report import span_breakdown
from repro.core import PulseCluster
from repro.core.messages import RequestStatus
from repro.params import AcceleratorParams, SystemParams
from repro.sim.engine import AllOf
from repro.structures import LinkedList

from tests.helpers import (count_process_starts, counter_value,
                           lossy_cluster)


def make_list_cluster(n=40, nodes=1, **cluster_kwargs):
    cluster = PulseCluster(node_count=nodes, **cluster_kwargs)
    lst = LinkedList(cluster.memory)
    lst.extend((k, k * 2) for k in range(1, n + 1))
    return cluster, lst


class TestAcceleratorStats:
    def test_phase_accounting_matches_fig9_constants(self):
        cluster, lst = make_list_cluster()
        cluster.run_traversal(lst.find_iterator(), 20)
        snapshot = cluster.metrics_snapshot()
        spans = span_breakdown(snapshot)
        acc = cluster.params.accelerator
        # one request in, one response out: two netstack passes
        assert spans["netstack"]["count"] == 2
        assert spans["netstack"]["mean_ns"] == acc.netstack_ns
        assert spans["scheduler"]["mean_ns"] == acc.scheduler_dispatch_ns
        # 24-byte window: occupancy + interconnect + latency tail.
        expected_mem = (acc.occupancy_ns(24) + 24 / 25.0
                        + acc.dram_latency_ns)
        assert spans["memory"]["mean_ns"] == \
            pytest.approx(expected_mem, rel=0.01)
        counters = snapshot["counters"]
        assert counters["mem0.acc.iterations"] == 20
        assert counters["mem0.acc.requests"] == 1
        assert counters["mem0.acc.responses"] == 1

    def test_bytes_loaded_counts_window(self):
        cluster, lst = make_list_cluster()
        cluster.run_traversal(lst.find_iterator(), 10)
        assert counter_value(cluster, "mem0.acc.bytes_loaded") == 10 * 24

    def test_memory_bandwidth_used(self):
        cluster, lst = make_list_cluster()
        cluster.run_traversal(lst.find_iterator(), 40)
        acc = cluster.accelerators[0]
        assert 0 < acc.memory_bandwidth_used() < 25.0

    def test_memory_bandwidth_gauge_covers_the_measurement_window(self):
        """Bytes counted since begin_measurement() are divided by the
        time since begin_measurement(), not since t = 0: the same
        traversal reads the same bandwidth before and after a warm-up."""
        cluster, lst = make_list_cluster()
        gauge = "mem0.acc.memory_bandwidth_bytes_per_ns"
        cluster.run_traversal(lst.find_iterator(), 40)
        cold = cluster.metrics_snapshot()["gauges"][gauge]
        first_ns = cluster.env.now

        cluster.begin_measurement()
        cluster.run_traversal(lst.find_iterator(), 40)
        window_ns = cluster.env.now - first_ns
        warm = cluster.metrics_snapshot()["gauges"][gauge]
        assert warm == pytest.approx(40 * 24 / window_ns)
        # the TLB is warm, so the second run is no slower than the first
        assert warm >= cold

    def test_network_bandwidth_gauges_cover_the_measurement_window(self):
        """The sibling ``net.<ep>`` gauges: bytes since
        begin_measurement() over the time since begin_measurement()."""
        cluster, lst = make_list_cluster()
        cluster.run_traversal(lst.find_iterator(), 40)
        first_ns = cluster.env.now

        cluster.begin_measurement()
        cluster.run_traversal(lst.find_iterator(), 40)
        window_ns = cluster.env.now - first_ns
        snapshot = cluster.metrics_snapshot()
        for endpoint in ("client0", "mem0"):
            for way in ("tx", "rx"):
                moved = snapshot["counters"][f"net.{endpoint}.{way}_bytes"]
                rate = snapshot["gauges"][
                    f"net.{endpoint}.{way}_bandwidth_bytes_per_ns"]
                assert moved > 0
                assert rate == pytest.approx(moved / window_ns)


class TestWorkspaceLimits:
    def test_requests_queue_beyond_workspace_capacity(self):
        accel = AcceleratorParams(workspaces_per_core=1)
        params = SystemParams(accelerator=accel)
        cluster = PulseCluster(node_count=1, params=params,
                               cores_per_accelerator=1)
        lst = LinkedList(cluster.memory)
        lst.extend((k, k) for k in range(1, 201))
        finder = lst.find_iterator()
        # Ten concurrent long traversals against one workspace: all must
        # complete, serialized.
        stats = cluster.run_workload([(finder, (200,))] * 10,
                                     concurrency=10)
        assert stats.completed == 10
        assert stats.faults == 0

    def test_iteration_budget_partitions_across_visits(self):
        accel = AcceleratorParams(max_iterations=16)
        params = SystemParams(accelerator=accel)
        cluster = PulseCluster(node_count=1, params=params)
        lst = LinkedList(cluster.memory)
        lst.extend((k, k) for k in range(1, 101))
        result = cluster.run_traversal(lst.find_iterator(), 100)
        assert result.value == 100
        assert result.iterations == 100


class TestSwitchBehaviour:
    def test_one_rule_per_node(self):
        for nodes in (1, 3, 4):
            cluster = PulseCluster(node_count=nodes)
            assert cluster.switch.rule_count == nodes

    def test_unroutable_pointer_returns_fault(self):
        cluster, lst = make_list_cluster()
        finder = lst.find_iterator()
        lst.head = 0x7F  # below any node's range
        result = cluster.run_traversal(finder, 1)
        assert not result.ok
        assert "unroutable" in result.fault.reason

    def test_stale_duplicate_responses_dropped(self):
        cluster = lossy_cluster(0.3, 30_000.0, node_count=1, seed=3)
        lst = LinkedList(cluster.memory)
        lst.extend((k, k) for k in range(1, 30))
        finder = lst.find_iterator()
        for key in range(1, 20):
            result = cluster.run_traversal(finder, key)
            assert result.value == key
        # With duplicates in flight, the switch dropped the stale ones
        # rather than misrouting them.
        assert counter_value(cluster, "client0.client.retransmissions") > 0


class TestProtectionPath:
    def test_readonly_range_faults_on_store(self):
        from repro.mem.translation import PERM_READ
        from repro.structures import HashTable

        cluster = PulseCluster(node_count=1)
        table = HashTable(cluster.memory, buckets=2, value_bytes=8)
        table.insert(5, (1).to_bytes(8, "little"))
        # Flip the whole node range to read-only.
        node = cluster.memory.nodes[0]
        for entry in node.table.entries:
            node.table.set_permissions(entry.virt_start, PERM_READ)
        result = cluster.run_traversal(table.update_iterator(), 5, 99)
        assert not result.ok
        assert "protection" in result.fault.reason.lower()

    def test_unreadable_range_faults_on_load(self):
        """The memory pipeline is translation *and* protection (§4.2): a
        LOAD through a range without PERM_READ faults exactly as
        ``MemoryNode.read_virt`` does, it does not return the bytes."""
        from repro.mem.translation import PERM_WRITE, ProtectionFault
        from repro.structures import HashTable

        cluster = PulseCluster(node_count=1)
        table = HashTable(cluster.memory, buckets=2, value_bytes=8)
        table.insert(5, (1).to_bytes(8, "little"))
        node = cluster.memory.nodes[0]
        for entry in node.table.entries:
            node.table.set_permissions(entry.virt_start, PERM_WRITE)
        finder = table.find_iterator()
        with pytest.raises(ProtectionFault) as functional:
            node.read_virt(finder.init(5)[0], 8)
        result = cluster.run_traversal(finder, 5)
        assert not result.ok
        assert result.fault.reason == str(functional.value)
        assert counter_value(cluster, "mem0.acc.faults") == 1

    def test_store_through_accelerator_persists(self):
        from repro.structures import HashTable

        cluster = PulseCluster(node_count=1)
        table = HashTable(cluster.memory, buckets=2, value_bytes=8)
        table.insert(5, (1).to_bytes(8, "little"))
        result = cluster.run_traversal(table.update_iterator(), 5, 4242)
        assert result.value is True
        assert int.from_bytes(table.find_reference(5), "little") == 4242


class TestRequestWireFormat:
    def test_wire_size_includes_code_and_scratch(self):
        cluster, lst = make_list_cluster()
        finder = lst.find_iterator()
        first = cluster.engines[0].make_request(finder, 5)
        # First use ships the encoded program (header + name + 8 B per
        # instruction + constant pool)...
        expected = (128  # frame + header
                    + finder.program.wire_bytes()
                    + 8
                    + len(first.scratch))
        assert first.wire_bytes() == expected
        assert first.code_on_wire
        # ... later requests carry only the 16 B program handle.
        second = cluster.engines[0].make_request(finder, 6)
        assert not second.code_on_wire
        assert second.wire_bytes() == (128 + 16 + 8
                                       + len(second.scratch))
        assert second.wire_bytes() < first.wire_bytes()

    def test_advanced_preserves_identity(self):
        cluster, lst = make_list_cluster()
        request = cluster.engines[0].make_request(lst.find_iterator(), 5)
        response = request.advanced(0x42, b"\x01", 3,
                                    RequestStatus.DONE)
        assert response.request_id == request.request_id
        assert response.cur_ptr == 0x42
        assert response.iterations_done == 3
        assert response.status is RequestStatus.DONE
        # The original request is unchanged (responses are copies).
        assert request.status is RequestStatus.RUNNING


class TestLocalFallback:
    def _heavy_iterator(self, cluster):
        """A kernel too compute-heavy for the accelerator."""
        from repro.core.kernel import KernelBuilder
        from repro.core.iterator import PulseIterator
        from repro.structures.linkedlist import _node_layout

        layout = _node_layout(8)
        k = KernelBuilder("heavy", scratch_bytes=16)
        for _ in range(150):  # t_c = 150 ns >> eta_max * t_d
            k.add(k.sp(0), k.sp(0), k.field(layout, "value"))
        k.compare(k.field(layout, "next"), k.imm(0))
        k.jump_eq("done")
        k.move(k.cur_ptr(), k.field(layout, "next"))
        k.next_iter()
        k.label("done")
        k.ret()
        program = k.build()

        class HeavySum(PulseIterator):
            def __init__(self, head):
                self.head = head
                self.program = program

            def init(self):
                return self.head, bytes(16)

            def finalize(self, scratch):
                return int.from_bytes(scratch[:8], "little",
                                      signed=True)

        return HeavySum

    def test_rejected_program_runs_locally_and_slower(self):
        cluster, lst = make_list_cluster(n=30)
        heavy_cls = self._heavy_iterator(cluster)
        heavy = heavy_cls(lst.head)
        decision = cluster.engines[0].decide(heavy.program)
        assert not decision.offload
        result = cluster.run_traversal(heavy)
        assert not result.offloaded
        assert result.value == sum(k * 2 for k in range(1, 31)) * 150

        # The offloadable equivalent is much faster end to end.
        fast = cluster.run_traversal(lst.sum_iterator())
        assert fast.offloaded
        assert result.latency_ns > 5 * fast.latency_ns


class TestProcessBudget:
    """A process exists only where a coroutine waits more than once:
    an accelerator hop is admission plus one lane group; parse, reply,
    control frames and one-shot timers are callbacks."""

    ONE_SHOT = ("_reply", "_respond", "_commit_timer", "_expire_hints")

    def accelerator_starts(self, started):
        """The accelerator's share of ``started``, having checked that
        no one-shot generator was started anywhere."""
        assert not [name for name in started
                    if name.rsplit(".", 1)[-1] in self.ONE_SHOT]
        return {name: n for name, n in started.items()
                if name.startswith("Accelerator.")}

    def test_scalar_hop_starts_admission_and_one_lane_group(
            self, monkeypatch):
        cluster, lst = make_list_cluster()
        started = count_process_starts(monkeypatch)
        result = cluster.run_traversal(lst.find_iterator(), 20)
        assert result.ok and result.value == 40
        assert counter_value(cluster, "mem0.acc.requests") == 1  # one hop
        assert self.accelerator_starts(started) == {
            "Accelerator._admit": 1, "Accelerator._serve_group": 1}

    def test_doorbell_starts_one_process_per_group_none_per_lane(
            self, monkeypatch):
        cluster, lst = make_list_cluster(batch_size=64, batch_lanes=32)
        started = count_process_starts(monkeypatch)
        pending = cluster.submit_many(
            [(lst.find_iterator(), (1 + k % 40,)) for k in range(64)])
        cluster.env.run(until=AllOf(cluster.env,
                                    [p._process for p in pending]))
        assert [p.result.value for p in pending] == \
            [2 * (1 + k % 40) for k in range(64)]
        snap = cluster.metrics_snapshot()["counters"]
        assert snap["mem0.acc.batches"] == 1  # one 64-request frame
        assert snap["mem0.acc.batch.groups"] == 2
        assert snap["mem0.acc.responses"] == 64
        assert self.accelerator_starts(started) == {
            "Accelerator._admit": 1, "Accelerator._serve_group": 2}
