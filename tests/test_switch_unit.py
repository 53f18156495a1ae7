"""Unit tests for switch routing logic and message lifecycle details."""

import pytest

from repro.core import PulseCluster, RequestStatus
from repro.core.messages import TraversalBatch, TraversalRequest
from repro.core.switch import PulseSwitch
from repro.isa import assemble
from repro.mem import AddressSpace
from repro.params import DEFAULT_PARAMS
from repro.placement import PlacementMap
from repro.sim import Environment
from repro.sim.network import Fabric, Message

from tests.helpers import counter_value

PROGRAM = assemble("LOAD 0 8\nRETURN")


def make_switch(node_count=2, bounce=False):
    env = Environment()
    fabric = Fabric(env, DEFAULT_PARAMS.network)
    space = AddressSpace(node_count, 1 << 20)
    switch = PulseSwitch(env, fabric, PlacementMap(space), DEFAULT_PARAMS,
                         bounce_to_client=bounce)
    client = fabric.register("client0")
    nodes = [fabric.register(f"mem{i}") for i in range(node_count)]
    return env, fabric, space, switch, client, nodes


def request(cur_ptr, status=RequestStatus.RUNNING, request_id=(0, 1)):
    return TraversalRequest(request_id=request_id, program=PROGRAM,
                            cur_ptr=cur_ptr, scratch=b"", status=status)


def send(env, fabric, src, req):
    fabric.send(Message("pulse", src, "switch", 128, req), segments=1)
    env.run()


class TestSwitchRouting:
    def test_the_switch_is_a_handler_and_owns_no_process(self):
        env, fabric, space, switch, client, nodes = make_switch()
        assert env.peek() == float("inf")  # nothing was started
        start1, _ = space.range_of(1)
        fabric.send(Message("other", "client0", "switch", 128,
                            request(start1)), segments=1)
        env.run()
        assert not nodes[1].inbox  # non-pulse traffic is ignored

    def test_client_request_routed_by_cur_ptr(self):
        env, fabric, space, switch, client, nodes = make_switch()
        start1, _ = space.range_of(1)
        send(env, fabric, "client0", request(start1))
        assert len(nodes[1].inbox) == 1
        assert counter_value(switch, "switch.routed_to_memory") == 1

    def test_memory_running_response_rerouted(self):
        env, fabric, space, switch, client, nodes = make_switch()
        req = request(space.range_of(0)[0])
        send(env, fabric, "client0", req)
        continuation = req.advanced(space.range_of(1)[0], b"", 1,
                                    RequestStatus.RUNNING)
        send(env, fabric, "mem0", continuation)
        assert counter_value(switch, "switch.rerouted_node_to_node") == 1
        assert len(nodes[1].inbox) == 1

    def test_done_response_returns_to_issuing_client(self):
        env, fabric, space, switch, client, nodes = make_switch()
        req = request(space.range_of(0)[0])
        send(env, fabric, "client0", req)
        done = req.advanced(req.cur_ptr, b"", 1, RequestStatus.DONE)
        send(env, fabric, "mem0", done)
        assert len(client.inbox) == 1
        assert counter_value(switch, "switch.returned_to_client") == 1

    def test_unroutable_pointer_becomes_fault(self):
        env, fabric, space, switch, client, nodes = make_switch()
        send(env, fabric, "client0", request(0x10))  # below any range
        assert len(client.inbox) == 1
        delivered = client.inbox._items[0].payload
        assert delivered.status is RequestStatus.FAULT
        assert "unroutable" in delivered.fault_reason

    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_unroutable_pointer_leaves_no_client_entry(self, batch_size):
        """Single-request and doorbell-batch routing agree: a request
        FAULTed as unroutable takes its learned client entry with it."""
        from repro.structures import LinkedList
        cluster = PulseCluster(node_count=1, batch_size=batch_size)
        chain = LinkedList(cluster.memory)
        chain.extend([(1, 1), (2, 2)])
        chain.head = 0x10  # below any range
        pendings = cluster.submit_many(
            [(chain.find_iterator(), (2,))] * batch_size)
        cluster.env.run()
        assert all("unroutable" in p.result.fault.reason for p in pendings)
        gauges = cluster.metrics_snapshot()["gauges"]
        assert gauges["switch.client_table_occupancy"] == 0

    def test_bounce_mode_returns_running_to_client(self):
        env, fabric, space, switch, client, nodes = make_switch(
            bounce=True)
        req = request(space.range_of(0)[0])
        send(env, fabric, "client0", req)
        continuation = req.advanced(space.range_of(1)[0], b"", 1,
                                    RequestStatus.RUNNING)
        send(env, fabric, "mem0", continuation)
        assert counter_value(switch, "switch.rerouted_node_to_node") == 0
        assert len(client.inbox) == 1

    def test_stale_terminal_response_dropped(self):
        env, fabric, space, switch, client, nodes = make_switch()
        req = request(space.range_of(0)[0])
        send(env, fabric, "client0", req)
        done = req.advanced(req.cur_ptr, b"", 1, RequestStatus.DONE)
        send(env, fabric, "mem0", done)
        # A duplicate of the same terminal response: dropped, not
        # bounced around.
        send(env, fabric, "mem0", done)
        assert counter_value(switch, "switch.dropped_stale") == 1
        assert len(client.inbox) == 1

    def test_mixed_batch_faults_first_then_one_frame_per_owner(self):
        env, fabric, space, switch, client, nodes = make_switch()
        start0, start1 = space.range_of(0)[0], space.range_of(1)[0]
        first, other, lost, second = batch = [
            request(start0, request_id=(0, 1)),
            request(start1, request_id=(0, 2)),
            request(0x10, request_id=(0, 3)),        # below any range
            request(start0 + 8, request_id=(0, 4))]
        sent = []
        fabric_send = fabric.send

        def record(message, *args, **kwargs):
            if message.src == "switch":
                sent.append(message)
            fabric_send(message, *args, **kwargs)

        fabric.send = record
        frame = TraversalBatch(batch)
        fabric_send(Message("pulse", "client0", "switch",
                            frame.wire_bytes(), frame), segments=1)
        env.run()

        assert [m.dst for m in sent] == ["client0", "mem0", "mem1"]
        fault, to_mem0, to_mem1 = (m.payload for m in sent)
        assert fault is lost and fault.status is RequestStatus.FAULT
        assert isinstance(to_mem0, TraversalBatch)
        assert to_mem0.requests == [first, second]
        assert to_mem1 is other
        assert [m.size_bytes for m in sent] == [
            lost.wire_bytes(), to_mem0.wire_bytes(), other.wire_bytes()]
        assert [counter_value(switch, f"switch.{name}") for name in (
            "batches_routed", "batch_splits", "routed_to_memory")] == \
            [1, 1, 3]

    def test_non_pulse_traffic_ignored(self):
        env, fabric, space, switch, client, nodes = make_switch()
        fabric.send(Message("rpc", "client0", "switch", 64, None),
                    segments=1)
        env.run()
        assert counter_value(switch, "switch.routed_to_memory") == 0


class TestMessageLifecycle:
    def test_advanced_accumulates_iterations(self):
        req = request(0x1000)
        first = req.advanced(0x2000, b"x", 5, RequestStatus.ITER_LIMIT)
        second = first.advanced(0x3000, b"y", 7, RequestStatus.DONE)
        assert second.iterations_done == 12

    def test_tenant_defaults_to_client_id(self):
        cluster = PulseCluster(node_count=1, client_count=3)
        from repro.structures import LinkedList
        lst = LinkedList(cluster.memory)
        lst.extend([(1, 1)])
        req = cluster.engines[2].make_request(lst.find_iterator(), 1)
        assert req.tenant == 2

    def test_code_handle_constant(self):
        assert TraversalRequest.CODE_HANDLE_BYTES == 16
