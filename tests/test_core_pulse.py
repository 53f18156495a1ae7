"""End-to-end tests for the pulse core: kernel builder, offload engine,
accelerator, switch routing, and the cluster assembly."""

import pytest

from repro.bench.driver import run_workload
from repro.core import (
    KernelBuilder,
    OffloadEngine,
    PulseCluster,
    PulseIterator,
    RequestStatus,
)
from repro.isa import Opcode
from repro.mem import Field, StructLayout
from repro.params import (
    AcceleratorParams,
    SystemParams,
)

from tests.helpers import build_list, counter_value, lossy_cluster

LIST_NODE = StructLayout("list_node", [
    Field("key", "u64"),
    Field("value", "u64"),
    Field("next", "ptr"),
])

KEY_NOT_FOUND = 0
KEY_FOUND = 1


def build_find_program(name="list_find"):
    """The paper's Listing 3/4 kernel, via the kernel builder.

    Scratch layout: [0:8) search key, [8:16) value out, [16:24) status.
    """
    k = KernelBuilder(name, scratch_bytes=24)
    k.compare(k.sp(0), k.field(LIST_NODE, "key"))
    k.jump_eq("found")
    k.compare(k.field(LIST_NODE, "next"), k.imm(0))
    k.jump_eq("notfound")
    k.move(k.cur_ptr(), k.field(LIST_NODE, "next"))
    k.next_iter()
    k.label("notfound")
    k.move(k.sp(16), k.imm(KEY_NOT_FOUND))
    k.ret()
    k.label("found")
    k.move(k.sp(8), k.field(LIST_NODE, "value"))
    k.move(k.sp(16), k.imm(KEY_FOUND))
    k.ret()
    return k.build()


class ListFind(PulseIterator):
    """Find a key in a singly linked list starting at ``head``."""

    def __init__(self, head: int, program=None):
        self.head = head
        self.program = program if program is not None \
            else build_find_program()

    def init(self, key):
        return self.head, int(key).to_bytes(8, "little")

    def finalize(self, scratch):
        status = int.from_bytes(scratch[16:24], "little")
        if status != KEY_FOUND:
            return None
        return int.from_bytes(scratch[8:16], "little")


class TestKernelBuilder:
    def test_load_aggregation_single_window(self):
        program = build_find_program()
        assert program.instructions[0].opcode is Opcode.LOAD
        # key@0 .. next@24: window covers the whole 24-byte record.
        assert program.load_window == (0, 24)
        loads = [i for i in program.instructions
                 if i.opcode is Opcode.LOAD]
        assert len(loads) == 1

    def test_window_rebased_when_first_field_skipped(self):
        layout = StructLayout("rec", [
            Field("pad", "bytes", size=32),
            Field("key", "u64"),
            Field("next", "ptr"),
        ])
        k = KernelBuilder("skip", scratch_bytes=16)
        k.compare(k.sp(0), k.field(layout, "key"))
        k.jump_eq("done")
        k.move(k.cur_ptr(), k.field(layout, "next"))
        k.next_iter()
        k.label("done")
        k.ret()
        program = k.build()
        # Window starts at the first touched byte (offset 32), not 0.
        assert program.load_window == (32, 16)
        # Data operands were rebased into the window.
        compare = program.instructions[1]
        assert compare.b.value == 0

    def test_memcpy_field_emits_chunked_moves(self):
        layout = StructLayout("rec", [
            Field("value", "bytes", size=20),
            Field("next", "ptr"),
        ])
        k = KernelBuilder("copy", scratch_bytes=32)
        k.memcpy_field_to_sp(0, layout, "value")
        k.ret()
        program = k.build()
        moves = [i for i in program.instructions
                 if i.opcode is Opcode.MOVE]
        assert len(moves) == 3  # 8 + 8 + 4 bytes
        assert moves[2].a.width == 4

    def test_distinct_data_fields_counted(self):
        k = KernelBuilder("k", scratch_bytes=8)
        k.compare(k.field(LIST_NODE, "key"), k.field(LIST_NODE, "key"))
        k.jump_eq("x")
        k.move(k.cur_ptr(), k.field(LIST_NODE, "next"))
        k.next_iter()
        k.label("x")
        k.ret()
        assert len(set(k._data_accesses)) == 2
        k.build()

    def test_kernel_without_data_access_rejected(self):
        from repro.isa import IsaError
        k = KernelBuilder("nothing", scratch_bytes=8)
        k.ret()
        with pytest.raises(IsaError, match="never touches data"):
            k.build()

    def test_duplicate_label_rejected(self):
        from repro.isa import IsaError
        k = KernelBuilder("k")
        k.label("a")
        with pytest.raises(IsaError, match="duplicate"):
            k.label("a")

    def test_undefined_label_rejected(self):
        from repro.isa import IsaError
        k = KernelBuilder("k", scratch_bytes=8)
        k.compare(k.field(LIST_NODE, "key"), k.imm(0))
        k.jump_eq("nowhere")
        k.ret()
        with pytest.raises(IsaError, match="undefined label"):
            k.build()

    def test_builder_single_use(self):
        from repro.isa import IsaError
        k = KernelBuilder("k", scratch_bytes=8)
        k.compare(k.field(LIST_NODE, "key"), k.imm(0))
        k.ret()
        k.build()
        with pytest.raises(IsaError):
            k.build()


class TestOffloadEngine:
    def test_decision_cached(self):
        engine = OffloadEngine(AcceleratorParams())
        program = build_find_program()
        first = engine.decide(program)
        second = engine.decide(program)
        assert first is second
        assert first.offload

    def test_request_ids_monotonic(self):
        engine = OffloadEngine(AcceleratorParams(), client_id=3)
        a = engine.next_request_id()
        b = engine.next_request_id()
        assert a == (3, 1) and b == (3, 2)

    def test_make_request_runs_init(self):
        engine = OffloadEngine(AcceleratorParams())
        iterator = ListFind(head=0x12345, program=build_find_program())
        request = engine.make_request(iterator, 42)
        assert request.cur_ptr == 0x12345
        assert int.from_bytes(request.scratch[:8], "little") == 42
        assert request.status is RequestStatus.RUNNING


class TestSingleNodeTraversal:
    def test_finds_value(self):
        cluster = PulseCluster(node_count=1)
        addrs = build_list(cluster.memory,
                           [(k, k * 10) for k in range(1, 21)])
        finder = ListFind(addrs[0])
        result = cluster.run_traversal(finder, 15)
        assert result.value == 150
        assert result.iterations == 15
        assert result.offloaded
        assert result.hops == 0

    def test_missing_key_returns_none(self):
        cluster = PulseCluster(node_count=1)
        addrs = build_list(cluster.memory, [(1, 10), (2, 20)])
        result = cluster.run_traversal(ListFind(addrs[0]), 99)
        assert result.value is None
        assert result.ok

    def test_latency_grows_with_traversal_length(self):
        cluster = PulseCluster(node_count=1)
        addrs = build_list(cluster.memory,
                           [(k, k) for k in range(1, 101)])
        finder = ListFind(addrs[0])
        short = cluster.run_traversal(finder, 5)
        long = cluster.run_traversal(finder, 95)
        assert long.latency_ns > short.latency_ns
        # Fig 1a (supp): latency is linear in hops; slope is roughly the
        # per-iteration pipeline time.
        per_iter = (long.latency_ns - short.latency_ns) / 90
        acc = cluster.params.accelerator
        expected = acc.memory_access_ns(24) + 24 / 25.0 + 6.0
        assert per_iter == pytest.approx(expected, rel=0.2)

    def test_latency_includes_fixed_network_path(self):
        cluster = PulseCluster(node_count=1)
        addrs = build_list(cluster.memory, [(1, 10)])
        result = cluster.run_traversal(ListFind(addrs[0]), 1)
        net = cluster.params.network
        acc = cluster.params.accelerator
        floor = (2 * net.dpdk_stack_ns + 4 * net.segment_ns
                 + 2 * acc.netstack_ns)
        assert result.latency_ns > floor

    def test_invalid_pointer_faults(self):
        cluster = PulseCluster(node_count=1)
        finder = ListFind(head=0xDEAD)  # unmapped address
        result = cluster.run_traversal(finder, 1)
        assert not result.ok
        assert "unroutable" in result.fault.reason or \
               "invalid" in result.fault.reason

    def test_iteration_limit_continuation(self):
        params = SystemParams(
            accelerator=AcceleratorParams(max_iterations=8))
        cluster = PulseCluster(node_count=1, params=params)
        addrs = build_list(cluster.memory,
                           [(k, k) for k in range(1, 31)])
        result = cluster.run_traversal(ListFind(addrs[0]), 30)
        assert result.value == 30
        assert result.iterations == 30
        # 30 iterations at 8 per visit => at least 3 continuations.
        assert counter_value(cluster, "switch.routed_to_memory") >= 4


class TestDistributedTraversal:
    def _two_node_cluster(self, bounce=False):
        cluster = PulseCluster(node_count=2, bounce_to_client=bounce)
        # Alternate allocations between nodes: every hop crosses nodes.
        addrs = build_list(cluster.memory,
                           [(k, k * 10) for k in range(1, 11)],
                           node_for=lambda i: i % 2)
        return cluster, addrs

    def test_traversal_crosses_nodes_in_switch(self):
        cluster, addrs = self._two_node_cluster()
        result = cluster.run_traversal(ListFind(addrs[0]), 10)
        assert result.value == 100
        assert result.hops == 9
        assert counter_value(
            cluster, "switch.rerouted_node_to_node") == 9
        # In-switch mode: the client saw exactly one response.
        assert counter_value(cluster, "net.client0.rx_messages") == 1

    def test_acc_mode_bounces_through_client(self):
        cluster, addrs = self._two_node_cluster(bounce=True)
        result = cluster.run_traversal(ListFind(addrs[0]), 10)
        assert result.value == 100
        assert counter_value(
            cluster, "switch.rerouted_node_to_node") == 0
        # Every hop produced a client round trip.
        assert counter_value(cluster, "net.client0.rx_messages") == 10

    def test_acc_mode_slower_than_in_switch(self):
        in_switch, addrs_a = self._two_node_cluster(bounce=False)
        bounced, addrs_b = self._two_node_cluster(bounce=True)
        fast = in_switch.run_traversal(ListFind(addrs_a[0]), 10)
        slow = bounced.run_traversal(ListFind(addrs_b[0]), 10)
        # Fig 8a: pulse-ACC sees 1.9-2.7x higher latency on two nodes.
        assert slow.latency_ns > 1.5 * fast.latency_ns

    def test_partitioned_allocation_avoids_hops(self):
        cluster = PulseCluster(node_count=2)
        addrs = build_list(cluster.memory,
                           [(k, k) for k in range(1, 11)],
                           node_for=lambda i: 0)
        result = cluster.run_traversal(ListFind(addrs[0]), 10)
        assert result.hops == 0

    def test_result_correct_regardless_of_node_count(self):
        expected = {k: k * 7 for k in range(1, 16)}
        for nodes in (1, 2, 3, 4):
            cluster = PulseCluster(node_count=nodes)
            addrs = build_list(cluster.memory, list(expected.items()))
            finder = ListFind(addrs[0])
            for key, value in [(1, 7), (8, 56), (15, 105)]:
                assert cluster.run_traversal(finder, key).value == value


class TestRetransmission:
    def test_lossy_network_still_completes(self):
        cluster = lossy_cluster(0.2, 50_000.0, node_count=1, seed=7)
        addrs = build_list(cluster.memory,
                           [(k, k) for k in range(1, 11)])
        finder = ListFind(addrs[0])
        for key in range(1, 11):
            result = cluster.run_traversal(finder, key)
            assert result.value == key
        assert counter_value(cluster, "net.dropped_messages") > 0
        assert counter_value(cluster, "client0.client.retransmissions") > 0


class TestWorkloadDriver:
    def test_workload_statistics(self):
        cluster = PulseCluster(node_count=1)
        addrs = build_list(cluster.memory,
                           [(k, k * 2) for k in range(1, 33)])
        finder = ListFind(addrs[0])
        operations = [(finder, (k,)) for k in range(1, 33)]
        stats = run_workload(cluster, operations, concurrency=4)
        assert stats.completed == 32
        assert stats.faults == 0
        assert stats.throughput_per_s > 0
        assert stats.avg_latency_ns > 0
        assert stats.percentile_latency_ns(99) >= \
               stats.percentile_latency_ns(50)
        # Uniform keys 1..32 on a 32-long list: mean traversal ~16.5.
        assert 14 <= stats.avg_iterations <= 19

    def test_concurrency_improves_throughput(self):
        def run(concurrency):
            cluster = PulseCluster(node_count=1)
            addrs = build_list(cluster.memory,
                               [(k, k) for k in range(1, 65)])
            finder = ListFind(addrs[0])
            ops = [(finder, (64,))] * 64
            return run_workload(cluster, ops,
                                concurrency=concurrency).throughput_per_s

        assert run(8) > 2 * run(1)
