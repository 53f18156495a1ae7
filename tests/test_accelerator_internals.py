"""Focused tests on accelerator, switch, and client internals."""

import hashlib

import pytest

from repro.bench.driver import run_workload
from repro.bench.experiments import build_workload, make_system
from repro.bench.report import span_breakdown
from repro.core import PulseCluster
from repro.core.messages import RequestStatus
from repro.mem.translation import PERM_READ, PERM_WRITE, RangeEntry
from repro.params import AcceleratorParams, SystemParams
from repro.sim.engine import AllOf
from repro.structures import LinkedList

from tests.helpers import (count_process_starts, counter_value, find_reference,
                           hot_segments, lossy_cluster)
from tests.scenario import KEYS, build, lookups, run


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

    def test_every_rate_gauge_is_its_counter_over_the_window(self):
        """Each ``*_bytes_per_ns`` gauge divides its byte counter by the
        measured window, after a warmup too, so none exceeds its cap
        (bytes written while building the structure are not traffic)."""
        cluster = make_system("pulse")
        upc = build_workload(cluster, "UPC", 1, requests=60)
        run_workload(cluster, upc.operations[:30], concurrency=4)
        stats = run_workload(cluster, upc.operations[30:], concurrency=4)
        params = cluster.params
        counters = {  # gauge suffix -> (counter suffix, cap in B/ns)
            "tx_bandwidth_bytes_per_ns":
                ("tx_bytes", params.network.link_bytes_per_ns),
            "rx_bandwidth_bytes_per_ns":
                ("rx_bytes", params.network.link_bytes_per_ns),
            "memory_bandwidth_bytes_per_ns":
                ("bytes_loaded", params.memory.bandwidth_bytes_per_ns),
        }
        rates = {name: value
                 for name, value in stats.metrics["gauges"].items()
                 if name.endswith("_bytes_per_ns")}
        for name, rate in sorted(rates.items()):
            prefix, suffix = name.rsplit(".", 1)
            assert suffix in counters, f"{name} reads no byte counter"
            counter, cap = counters[suffix]
            moved = stats.metrics["counters"][f"{prefix}.{counter}"]
            assert rate == moved / stats.duration_ns, name
            assert rate <= cap, name
        # tx and rx of client0, switch and mem0, and mem0's accelerator
        assert len(rates) == 7


class TestWorkspaceLimits:
    def test_requests_queue_beyond_workspace_capacity(self):
        accel = AcceleratorParams(cores=1, workspaces_per_core=1)
        params = SystemParams(accelerator=accel)
        cluster = PulseCluster(node_count=1, params=params)
        lst = LinkedList(cluster.memory)
        lst.extend((k, k) for k in range(1, 201))
        finder = lst.find_iterator()
        # Ten concurrent long traversals against one workspace: all must
        # complete, serialized.
        stats = run_workload(cluster, [(finder, (200,))] * 10,
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
            assert cluster.switch.rangemap.rule_count == nodes

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
            entry.perms = PERM_READ
        node.table.version += 1
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
            entry.perms = PERM_WRITE
        node.table.version += 1
        finder = table.find_iterator()
        with pytest.raises(ProtectionFault) as functional:
            node.read_virt(finder.init(5)[0], 8)
        result = cluster.run_traversal(finder, 5)
        assert not result.ok
        assert result.fault.reason == str(functional.value)
        assert counter_value(cluster, "mem0.acc.faults") == 1

    def test_reset_fault_counts_as_accelerator_fault(self):
        """A frame that cannot take the request's scratch faults at the
        accelerator, and is counted there like every other fault."""
        cluster, lst = make_list_cluster()
        finder = lst.find_iterator()
        head, _scratch = finder.init(5)
        oversized = bytes(finder.program.scratch_bytes + 8)
        finder.init = lambda *_args: (head, oversized)
        result = cluster.run_traversal(finder, 5)
        assert not result.ok
        assert "exceeds" in result.fault.reason
        assert counter_value(cluster, "client0.client.faults") == 1
        assert counter_value(cluster, "mem0.acc.faults") == 1

    def test_store_through_accelerator_persists(self):
        from repro.structures import HashTable

        cluster = PulseCluster(node_count=1)
        table = HashTable(cluster.memory, buckets=2, value_bytes=8)
        table.insert(5, (1).to_bytes(8, "little"))
        result = cluster.run_traversal(table.update_iterator(), 5, 4242)
        assert result.value is True
        assert int.from_bytes(find_reference(table, 5), "little") == 4242


class TestLaneStepMemo:
    """The translation memo and the inline hotness countdown change no
    count: every number below was read before either existed."""

    @pytest.mark.parametrize("capacity, hits, misses",
                             [(1, 0, 40), (8, 38, 2)])
    def test_tlb_counts_with_lanes_in_two_entries(self, capacity, hits,
                                                  misses):
        """Two lanes of one group walk lists in two range entries: with a
        one-entry TLB each lookup evicts the other lane's entry, so every
        step misses twice -- a held entry that is no longer the MRU one
        must not count as a hit."""
        params = SystemParams(accelerator=AcceleratorParams(
            tlb_entries_per_core=capacity))
        cluster = PulseCluster(node_count=1, params=params, batch_size=64,
                               batch_lanes=32)
        first, second = LinkedList(cluster.memory), LinkedList(cluster.memory)
        first.extend((k, k) for k in range(1, 21))
        second.extend((k, k + 100) for k in range(1, 21))
        # Split the node's one coalesced entry at the second list, with
        # different permissions so the two halves cannot merge back.
        table = cluster.memory.nodes[0].table
        (entry,) = table.entries
        (upper,) = table.remove_range(second.head, entry.virt_end)
        table.insert(RangeEntry(upper.virt_start, upper.virt_end,
                                upper.phys_start, PERM_READ))
        assert len(table.entries) == 2

        pending = cluster.submit_many([(first.find_iterator(), (20,)),
                                       (second.find_iterator(), (20,))])
        cluster.env.run(until=AllOf(cluster.env,
                                    [p._process for p in pending]))
        assert [p.result.value for p in pending] == [20, 120]
        assert counter_value(cluster, "mem0.acc.batch.steps") == 20
        assert counter_value(cluster, "mem0.acc.tlb.hits") == hits
        assert counter_value(cluster, "mem0.acc.tlb.misses") == misses
        tlb = cluster.accelerators[0].cores[0].tlb
        assert (tlb.hits.value, tlb.misses.value) == (hits, misses)

    def test_permission_change_mid_traversal_faults_at_the_next_step(self):
        cluster, lst = make_list_cluster()
        finder = lst.find_iterator()
        cluster.run_traversal(finder, 1)      # warm the TLB
        table = cluster.memory.nodes[0].table

        def revoke_read():
            yield cluster.env.timeout(3_000.0)
            for entry in table.entries:
                entry.perms = PERM_WRITE
            table.version += 1

        cluster.env.process(revoke_read())
        result = cluster.run_traversal(finder, 40)
        assert result.fault.reason == ("protection fault at 0x100000c0: "
                                       "requested 0x1, granted 0x2")
        assert result.iterations == 8
        counters = cluster.metrics_snapshot()["counters"]
        assert [counters[f"mem0.acc.{name}"] for name in (
            "iterations", "faults", "tlb.hits", "tlb.misses")] == \
            [9, 1, 9, 1]

    def test_migration_fence_mid_traversal_moves_it(self):
        cluster, chain = build("chain", nodes=2)
        finder = chain.find_iterator()
        cluster.run_traversal(finder, 0)      # warm the TLB
        home = cluster.memory.placement.node_of(chain.head)
        start, end = cluster.memory.placement.rules_of(home)[0]

        def fence():
            yield cluster.env.timeout(3_000.0)
            yield cluster.migrate(start, end, 1 - home)

        cluster.env.process(fence())
        result = cluster.run_traversal(finder, KEYS - 1)
        assert (result.value, result.iterations) == (142, 48)
        assert result.latency_ns == 10983.06344827585
        counters = cluster.metrics_snapshot()["counters"]
        assert [counters[f"mem{home}.acc.{name}"] for name in (
            "iterations", "rerouted", "tlb.hits", "tlb.misses")] == \
            [13, 1, 13, 1]
        assert [counters[f"mem{1 - home}.acc.{name}"] for name in (
            "iterations", "tlb.hits", "tlb.misses")] == [36, 35, 1]

    @pytest.mark.parametrize("structure, batch, digest", [
        ("btree", True,
         "b1822c79f572ffcbc260e4f8b5e3fb01b47e1cad62e61a57caf19f8379ab0401"),
        ("chain", False,
         "0d0efc8283a3a32d5ad1b5f7e7122b350317dc8ebe8c121b49e6a634a8a7f08a"),
    ])
    def test_hotness_sample_stream(self, structure, batch, digest):
        """Samples, edges and the heat they leave behind after a fixed
        drive on a 2-node rack (the btree's lookups cross nodes, so its
        successor edges ride reroute continuations)."""
        cluster, built = build(structure, nodes=2)
        run(cluster, [lookups(built), lookups(built, keys=range(0, KEYS, 3))],
            batch=batch)
        heat = cluster.heat
        state = (heat.samples, heat.edge_samples,
                 hot_segments(heat), heat.hot_edges())
        assert hashlib.sha256(repr(state).encode()).hexdigest() == digest


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
