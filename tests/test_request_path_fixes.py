"""Regression tests for the request-path correctness sweep.

Each test here fails against the pre-fix code:

* offload engine keyed its deploy-once cache by ``id(program)`` instead
  of program content;
* the switch's request-id -> client table grew without bound when
  terminal responses were lost;
* the client counted a final retransmission it never sent before
  raising ``RequestLost``;
* ``Resource.utilization`` counted busy time from t = 0 whatever the
  window, reporting impossible utilizations > 1.
"""

import pytest

from repro.core import PulseCluster
from repro.core.client import MAX_RETRIES, RequestLost
from repro.core.messages import RequestStatus, TraversalRequest
from repro.core.switch import PulseSwitch
from repro.isa import assemble
from repro.mem import AddressSpace
from repro.params import DEFAULT_PARAMS
from repro.placement import PlacementMap
from repro.sim import Environment
from repro.sim.network import Fabric, Message
from repro.sim.resources import Resource
from repro.structures import LinkedList

from tests.helpers import counter_value, lossy_cluster


class TestOffloadDigestKeying:
    """Deploy-once must be keyed by program *content*, not id()."""

    def test_equal_programs_share_digest(self):
        p1 = assemble("LOAD 0 8\nRETURN")
        p2 = assemble("LOAD 0 8\nRETURN")
        assert p1 is not p2
        assert p1.digest() == p2.digest()
        assert len(p1.digest()) == TraversalRequest.CODE_HANDLE_BYTES

    def test_different_programs_differ(self):
        p1 = assemble("LOAD 0 8\nRETURN")
        p2 = assemble("LOAD 0 16\nRETURN")
        assert p1.digest() != p2.digest()

    def test_decision_cached_by_content(self):
        cluster = PulseCluster(node_count=1)
        l1 = LinkedList(cluster.memory)
        l2 = LinkedList(cluster.memory)
        i1, i2 = l1.find_iterator(), l2.find_iterator()
        assert i1.program is not i2.program
        engine = cluster.engines[0]
        assert engine.decide(i1.program) is engine.decide(i2.program)

    def test_identical_program_deploys_once(self):
        # Two separately-built structures compile equal programs; only
        # the first request may carry the code on the wire.
        cluster = PulseCluster(node_count=1)
        l1 = LinkedList(cluster.memory)
        l2 = LinkedList(cluster.memory)
        l1.extend([(1, 10)])
        l2.extend([(2, 20)])
        engine = cluster.engines[0]
        r1 = engine.make_request(l1.find_iterator(), 1)
        r2 = engine.make_request(l2.find_iterator(), 2)
        assert r1.code_on_wire
        assert not r2.code_on_wire

    def test_requests_carry_digest_as_wire_handle(self):
        cluster = PulseCluster(node_count=1)
        lst = LinkedList(cluster.memory)
        lst.extend([(1, 10)])
        iterator = lst.find_iterator()
        request = cluster.engines[0].make_request(iterator, 1)
        assert request.code_handle == iterator.program.digest()
        assert len(request.code_handle) == request.CODE_HANDLE_BYTES

    def test_continuation_preserves_handle(self):
        cluster = PulseCluster(node_count=1)
        lst = LinkedList(cluster.memory)
        lst.extend([(1, 10)])
        request = cluster.engines[0].make_request(lst.find_iterator(), 1)
        response = request.advanced(request.cur_ptr, b"", 1,
                                    RequestStatus.ITER_LIMIT)
        cont = cluster.engines[0].continuation(response, 0.0)
        assert cont.code_handle == request.code_handle
        assert not cont.code_on_wire


class TestSwitchClientTableBound:
    PROGRAM = assemble("LOAD 0 8\nRETURN")

    def make_switch(self, capacity):
        env = Environment()
        fabric = Fabric(env, DEFAULT_PARAMS.network)
        space = AddressSpace(1, 1 << 20)
        switch = PulseSwitch(env, fabric, PlacementMap(space), DEFAULT_PARAMS,
                             client_table_capacity=capacity)
        fabric.register("client0")
        fabric.register("mem0")
        return env, fabric, space, switch

    def request(self, space, request_id):
        return TraversalRequest(request_id=request_id,
                                program=self.PROGRAM,
                                cur_ptr=space.range_of(0)[0],
                                scratch=b"",
                                status=RequestStatus.RUNNING)

    def test_sustained_loss_keeps_occupancy_bounded(self):
        # Terminal responses for these requests are never delivered (the
        # memory endpoint is a black hole), so pre-fix every request id
        # pinned a table entry forever.
        env, fabric, space, switch = self.make_switch(capacity=8)
        for i in range(100):
            fabric.send(Message("pulse", "client0", "switch", 128,
                                self.request(space, (0, i))), segments=1)
        env.run()
        assert len(switch._table) <= 8
        assert counter_value(switch, "switch.evicted_entries") == 100 - 8
        assert counter_value(switch, "switch.routed_to_memory") == 100

    def test_eviction_is_oldest_first(self):
        env, fabric, space, switch = self.make_switch(capacity=2)
        for i in range(3):
            fabric.send(Message("pulse", "client0", "switch", 128,
                                self.request(space, (0, i))), segments=1)
        env.run()
        # (0, 0) was evicted; its terminal response is now stale.
        done = self.request(space, (0, 0)).advanced(
            space.range_of(0)[0], b"", 1, RequestStatus.DONE)
        fabric.send(Message("pulse", "mem0", "switch", 128, done),
                    segments=1)
        env.run()
        assert counter_value(switch, "switch.dropped_stale") == 1
        # (0, 2) survived: its response still goes home.
        done2 = self.request(space, (0, 2)).advanced(
            space.range_of(0)[0], b"", 1, RequestStatus.DONE)
        fabric.send(Message("pulse", "mem0", "switch", 128, done2),
                    segments=1)
        env.run()
        assert counter_value(switch, "switch.returned_to_client") == 1

    def test_eviction_skips_inflight_entries(self):
        # Insertion order alone is the wrong eviction key: the oldest
        # entry may belong to a long traversal that is still hopping
        # between memory nodes, and evicting it orphans the eventual
        # terminal response.  The scan must skip entries with recent
        # activity and take the first *inactive* one instead.
        env, fabric, space, switch = self.make_switch(capacity=2)
        timeout = DEFAULT_PARAMS.network.retransmit_timeout_ns
        for i in (1, 2):
            fabric.send(Message("pulse", "client0", "switch", 128,
                                self.request(space, (0, i))), segments=1)
        env.run()

        # (0, 1) -- the *older* entry -- stays in flight: a RUNNING
        # frame from memory refreshes its activity stamp.
        env.run(until=0.75 * timeout)
        hop = self.request(space, (0, 1)).advanced(
            space.range_of(0)[0], b"", 1, RequestStatus.RUNNING)
        fabric.send(Message("pulse", "mem0", "switch", 128, hop),
                    segments=1)
        env.run()

        # (0, 3) arrives once (0, 2) has gone quiet for > timeout but
        # (0, 1)'s refresh is still fresh (0.75 * timeout old).
        env.run(until=1.5 * timeout)
        fabric.send(Message("pulse", "client0", "switch", 128,
                            self.request(space, (0, 3))), segments=1)
        env.run()
        assert counter_value(
            switch, "switch.client_evict_inflight_avoided") == 1
        assert counter_value(switch, "switch.evicted_entries") == 1

        # The in-flight traversal's terminal response still goes home;
        # the evicted idle entry's does not.
        done1 = self.request(space, (0, 1)).advanced(
            space.range_of(0)[0], b"", 2, RequestStatus.DONE)
        fabric.send(Message("pulse", "mem0", "switch", 128, done1),
                    segments=1)
        env.run()
        assert counter_value(switch, "switch.returned_to_client") == 1
        done2 = self.request(space, (0, 2)).advanced(
            space.range_of(0)[0], b"", 1, RequestStatus.DONE)
        fabric.send(Message("pulse", "mem0", "switch", 128, done2),
                    segments=1)
        env.run()
        assert counter_value(switch, "switch.dropped_stale") == 1

    def test_all_inflight_forces_oldest_activity_eviction(self):
        # When every entry is active the bound still holds: the scan
        # falls back to evicting the least-recently-active entry, and
        # the "avoided" counter stays untouched (nothing was spared).
        env, fabric, space, switch = self.make_switch(capacity=2)
        for i in range(3):
            fabric.send(Message("pulse", "client0", "switch", 128,
                                self.request(space, (0, i))), segments=1)
        env.run()
        assert len(switch._table) == 2
        assert counter_value(switch, "switch.evicted_entries") == 1
        assert counter_value(
            switch, "switch.client_evict_inflight_avoided") == 0

    def test_retransmission_does_not_evict(self):
        # Re-learning an existing id must not consume capacity.
        env, fabric, space, switch = self.make_switch(capacity=2)
        for _ in range(5):
            fabric.send(Message("pulse", "client0", "switch", 128,
                                self.request(space, (0, 1))), segments=1)
        env.run()
        assert len(switch._table) == 1
        assert counter_value(switch, "switch.evicted_entries") == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            self.make_switch(capacity=0)


class TestRetransmitAccounting:
    def test_total_loss_counts_only_transmitted_copies(self):
        # With 100 % loss the client sends the original plus MAX_RETRIES
        # retransmissions, then gives up.  Pre-fix it counted one extra
        # "retransmission" that was never put on the wire.
        cluster = lossy_cluster(1.0, 5_000.0, node_count=1)
        lst = LinkedList(cluster.memory)
        lst.extend([(1, 10)])
        with pytest.raises(RequestLost):
            cluster.run_traversal(lst.find_iterator(), 1)
        assert counter_value(
            cluster, "client0.client.retransmissions") == MAX_RETRIES
        # Original + retransmissions, each one message to the switch.
        assert counter_value(
            cluster, "net.client0.tx_messages") == MAX_RETRIES + 1
        assert counter_value(cluster, "client0.client.requests_lost") == 1

    def test_zero_loss_zero_retransmissions(self):
        cluster = PulseCluster(node_count=1)
        lst = LinkedList(cluster.memory)
        lst.extend([(1, 10)])
        assert cluster.run_traversal(lst.find_iterator(), 1).value == 10
        assert counter_value(cluster, "client0.client.retransmissions") == 0
        assert counter_value(cluster, "client0.client.requests_lost") == 0


class TestUtilizationWindows:
    def _busy(self, env, resource, duration):
        def proc():
            grant = resource.request()
            yield grant
            try:
                yield env.timeout(duration)
            finally:
                resource.release(grant)
        return env.process(proc())

    def test_resource_begin_window_rebases(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        self._busy(env, resource, 100.0)
        env.run()
        resource.begin_window()
        self._busy(env, resource, 50.0)
        env.run()
        # Only post-window busy time counts: 50 ns over a 50 ns window.
        assert resource.utilization() == pytest.approx(1.0)

    def test_resource_default_window_since_construction(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        self._busy(env, resource, 100.0)
        env.run()

        def idle():
            yield env.timeout(100.0)
        env.run(until=env.process(idle()))
        assert resource.utilization() == pytest.approx(0.5)


class TestDuplicateDeliveryDedup:
    def test_end_to_end_duplicate_handling_under_loss(self):
        # An aggressive retransmit timeout (shorter than the round trip
        # for long traversals) plus loss forces duplicated executions,
        # whose duplicate terminal responses must be dropped exactly
        # once at each layer: the first response home pops the switch
        # entry (later copies -> dropped_stale), and a retransmitted
        # request that re-learns the entry can still let a second copy
        # through, which the client drops (no waiter).  Every result
        # stays exact either way.
        cluster = lossy_cluster(0.05, 2_500.0, node_count=1, seed=5)
        lst = LinkedList(cluster.memory)
        lst.extend((k, k * 3) for k in range(1, 31))
        finder = lst.find_iterator()
        for key in range(1, 31):
            assert cluster.run_traversal(finder, key).value == key * 3
        counters = cluster.metrics_snapshot()["counters"]
        assert counters["client0.client.retransmissions"] > 0
        assert counters["switch.dropped_stale"] > 0
        assert counters["client0.client.duplicates_dropped"] > 0
