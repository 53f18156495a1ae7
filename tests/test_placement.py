"""Unit tests for the elastic placement subsystem (repro.placement)."""

import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PulseCluster, RequestStatus
from repro.core.messages import TraversalRequest
from repro.isa import assemble
from repro.mem import AddressSpace
from repro.params import (MS, US, NetworkParams, PlacementParams,
                          SystemParams)
from repro.placement import (HeatMap, HotnessTracker, PlacementError,
                             PlacementMap)
from repro.placement.migration import MigrationError
from repro.sim.network import Message
from repro.structures import HashTable, LinkedList

from tests.helpers import (counter_value, drain, hot_segments, make_switch,
                           with_memory)

PROGRAM = assemble("LOAD 0 8\nRETURN")


# ---------------------------------------------------------------------------
# PlacementMap
# ---------------------------------------------------------------------------
class TestPlacementMap:
    def space(self, nodes=3, capacity=1 << 20):
        return AddressSpace(nodes, capacity)

    def test_fresh_map_matches_arithmetic_partition(self):
        space = self.space()
        pmap = PlacementMap(space)
        assert pmap.rule_count == 3
        for n in range(3):
            start, end = space.range_of(n)
            assert pmap.node_of(start) == n
            assert pmap.node_of(end - 1) == n
            assert pmap.rules_of(n) == [(start, end)]

    def test_node_of_outside_space_is_none(self):
        pmap = PlacementMap(self.space())
        assert pmap.node_of(0) is None          # NULL
        assert pmap.node_of(self.space().range_of(2)[1]) is None

    def test_move_splits_rule_and_bumps_version_once(self):
        space = self.space()
        pmap = PlacementMap(space)
        start, _ = space.range_of(0)
        version = pmap.version
        pmap.move(start + 0x100, start + 0x200, 2)
        assert pmap.version == version + 1
        # node 0's rule split in three (before, moved, after) + nodes 1, 2
        assert pmap.rule_count == 5
        assert pmap.node_of(start + 0x100) == 2
        assert pmap.node_of(start + 0x1FF) == 2
        assert pmap.node_of(start + 0x200) == 0
        assert pmap.node_of(start) == 0

    def test_move_back_coalesces(self):
        space = self.space()
        pmap = PlacementMap(space)
        start, _ = space.range_of(0)
        pmap.move(start + 0x100, start + 0x200, 2)
        pmap.move(start + 0x100, start + 0x200, 0)
        assert pmap.rule_count == 3
        assert pmap.rules_of(0) == [space.range_of(0)]

    def test_move_whole_adjacent_rules_coalesces_across_nodes(self):
        space = self.space()
        pmap = PlacementMap(space)
        start0, end0 = space.range_of(0)
        pmap.move(start0, end0, 1)
        assert pmap.rule_count == 2
        assert pmap.rules_of(0) == []
        assert sum(e - s for s, e in pmap.rules_of(1)) == 2 * (end0 - start0)

    def test_move_uncovered_range_raises(self):
        space = self.space()
        pmap = PlacementMap(space)
        _, end2 = space.range_of(2)
        with pytest.raises(PlacementError):
            pmap.move(end2, end2 + 0x1000, 0)

    def test_move_empty_range_raises(self):
        pmap = PlacementMap(self.space())
        start, _ = self.space().range_of(0)
        with pytest.raises(PlacementError):
            pmap.move(start, start, 1)

    def test_add_node_after_grow(self):
        space = self.space(2)
        pmap = PlacementMap(space)
        new = space.grow()
        pmap.add_node(new)
        assert pmap.rule_count == 3
        assert pmap.node_of(space.range_of(new)[0]) == new


# ---------------------------------------------------------------------------
# HotnessTracker
# ---------------------------------------------------------------------------
class TestHotnessTracker:
    def make(self, **kw):
        self.now = 0.0
        defaults = dict(segment_bytes=4096, halflife_ns=100.0,
                        clock=lambda: self.now, sample_period=1)
        defaults.update(kw)
        return HotnessTracker(**defaults)

    def heat_map(self, nodes, placement_map=None):
        params = PlacementParams(segment_bytes=4096, hot_halflife_ns=100.0,
                                 sample_period=1)
        heat = HeatMap(params, SimpleNamespace(now=0.0), placement_map)
        for node in range(nodes):
            heat.add_node(node)
        return heat

    def test_segment_bytes_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            self.make(segment_bytes=1000)

    def test_record_accumulates_per_segment(self):
        tracker = self.make()
        tracker.record(0x1000)
        tracker.record(0x1FFF)   # same 4 KB segment
        tracker.record(0x2000)   # next segment
        assert tracker.heat_of(0x1000) == 2.0
        assert tracker.heat_of(0x2000) == 1.0
        assert len(tracker) == 2

    def test_heat_decays_by_half_per_halflife(self):
        tracker = self.make()
        tracker.record(0x1000)
        self.now = 100.0
        assert tracker.heat_of(0x1000) == pytest.approx(0.5)
        self.now = 300.0
        assert tracker.heat_of(0x1000) == pytest.approx(0.125)

    def test_sampling_is_unbiased(self):
        # Geometric skips are i.i.d. Bernoulli(1/period) trials in
        # disguise: each reference is sampled with probability 1/8 and
        # weighted by 8, so over many references the estimate converges
        # on the true count (the clock never advances, so no decay).
        tracker = self.make(sample_period=8)
        n = 20_000
        for _ in range(n):
            tracker.sample(0x1000)
        assert tracker.heat_of(0x1000) == pytest.approx(n, rel=0.05)

    def test_strided_workload_not_aliased(self):
        # The old deterministic 1-in-N countdown aliased with strided
        # access: round-robining 8 segments against a fixed period of 8
        # landed *every* sample on one segment and reported the other
        # seven stone cold.  The randomized skip must spread samples so
        # each segment's estimate tracks its true reference count.
        tracker = self.make(sample_period=8)
        per_segment = 4_000
        for _ in range(per_segment):
            for seg in range(8):
                tracker.sample(seg * 4096)
        heats = [tracker.heat_of(seg * 4096) for seg in range(8)]
        assert all(h > 0 for h in heats)
        for h in heats:
            assert h == pytest.approx(per_segment, rel=0.2)

    def test_sampling_is_seeded_deterministic(self):
        a = HotnessTracker(segment_bytes=4096, halflife_ns=100.0,
                           clock=lambda: 0.0, sample_period=8,
                           stream="7:hotness")
        b = HotnessTracker(segment_bytes=4096, halflife_ns=100.0,
                           clock=lambda: 0.0, sample_period=8,
                           stream="7:hotness")
        for _ in range(1000):
            a.sample(0x1000)
            b.sample(0x1000)
        assert a.heat_of(0x1000) == b.heat_of(0x1000)

    def test_hot_segments_ranked(self):
        tracker = self.make()
        for _ in range(3):
            tracker.record(0x2000)
        tracker.record(0x1000)
        ranked = tracker.hot_segments()
        assert ranked[0][0] == 0x2000
        assert ranked[0][1] > ranked[1][1]

    def test_equal_heats_rank_by_address_on_a_bare_tracker(self):
        """One node's tracker breaks ties the way the rack-wide heat map
        does: by ascending segment address, not by which segment was
        recorded first."""
        tracker = self.make()
        tracker.record(0x3000)
        tracker.record(0x1000)
        assert [segment for segment, _ in tracker.hot_segments()] == [
            0x1000, 0x3000]
        rack = self.heat_map(nodes=2)
        for node, vaddr in ((0, 0x3000), (1, 0x1000)):
            rack.trackers[node].record(vaddr)
        assert hot_segments(rack) == tracker.hot_segments()

    def test_cold_segments_are_pruned(self):
        tracker = self.make()
        for i in range(32):
            tracker.record(i * 4096)
        assert len(tracker) == 32
        # 40 halflives later everything recorded above is stone cold;
        # one fresh record keeps a single segment warm.
        self.now = 100.0 * 40
        tracker.record(0x100000)
        ranked = tracker.hot_segments()
        assert ranked == [(0x100000, 1.0)]
        assert len(tracker) == 1

    def test_record_prunes_on_amortized_sweep(self):
        tracker = self.make()
        tracker.PRUNE_PERIOD = 4   # shrink the sweep period for the test
        tracker._until_prune = 4
        for i in range(3):
            tracker.record(i * 4096)
        self.now = 100.0 * 40
        tracker.record(0x100000)   # 4th record triggers the sweep
        assert len(tracker) == 1

    def test_node_heat_groups_by_owner(self):
        space = AddressSpace(2, 1 << 20)
        rack = self.heat_map(nodes=2, placement_map=PlacementMap(space))
        # Heat groups by the owner of the segment, not by which node's
        # tracker sampled it.
        rack.trackers[1].record(space.range_of(0)[0])
        rack.trackers[0].record(space.range_of(1)[0])
        rack.trackers[1].record(space.range_of(1)[0] + 4096)
        heat = rack.node_heat()
        assert heat[0] == pytest.approx(1.0)
        assert heat[1] == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# HeatMap against a brute-force oracle
# ---------------------------------------------------------------------------
HALFLIFE = 100.0
SEGMENTS_PER_NODE = 4

#: one event: (advance by this many halflives, node, kind, segment
#: index, other segment index, weight); every heat is then a sum of
#: dyadic fractions, so the decayed maps match the oracle exactly
EVENTS = st.lists(st.tuples(
    st.sampled_from((0, 0, 1, 2, 3, 11)), st.integers(0, 3),
    st.sampled_from(("record", "edge")), st.integers(0, 4 * 4 - 1),
    st.integers(0, 4 * 4 - 1), st.sampled_from((1.0, 2.0, 8.0))),
    max_size=40)


def oracle_heat(events, nodes, vaddr_of, now):
    """Segment -> heat and edge -> weight: per node, the sum of each of
    its events' weight x 0.5 ** (age / halflife), pruned below
    PRUNE_EPSILON; then summed over the nodes in node order."""
    eps = HotnessTracker.PRUNE_EPSILON
    segments, edges = {}, {}
    for node in range(nodes):
        own_segments, own_edges = {}, {}
        for at, where, kind, a, b, weight in events:
            if where != node:
                continue
            decayed = weight * 0.5 ** ((now - at) / HALFLIFE)
            seg_a, seg_b = vaddr_of(a) & ~4095, vaddr_of(b) & ~4095
            if kind == "record":
                own_segments[seg_a] = own_segments.get(seg_a, 0.0) + decayed
            elif seg_a != seg_b:
                key = (min(seg_a, seg_b), max(seg_a, seg_b))
                own_edges[key] = own_edges.get(key, 0.0) + decayed
        for own, merged in ((own_segments, segments), (own_edges, edges)):
            for key, value in own.items():
                if value >= eps:
                    merged[key] = merged.get(key, 0.0) + value
    return segments, edges


class TestHeatMapOracle:
    @settings(max_examples=150, derandomize=True, deadline=None,
              database=None)
    @given(nodes=st.integers(1, 4), events=EVENTS,
           tail=st.sampled_from((0, 1, 12)))
    def test_reads_match_a_brute_force_sum(self, nodes, events, tail):
        clock = SimpleNamespace(now=0.0)
        space = AddressSpace(nodes, SEGMENTS_PER_NODE * 4096)
        heat = HeatMap(PlacementParams(segment_bytes=4096,
                                       hot_halflife_ns=HALFLIFE),
                       clock, PlacementMap(space))
        for node in range(nodes):
            heat.add_node(node)

        def vaddr_of(index):
            # an address inside segment ``index`` of the rack's space
            index %= nodes * SEGMENTS_PER_NODE
            return space.base + index * 4096 + 8 * index

        seen = []
        for step, node, kind, a, b, weight in events:
            clock.now += step * HALFLIFE
            node %= nodes
            tracker = heat.trackers[node]
            if kind == "record":
                tracker.record(vaddr_of(a), weight=weight)
            else:
                tracker.record_edge(vaddr_of(a), vaddr_of(b), weight=weight)
            seen.append((clock.now, node, kind, a, b, weight))
        clock.now += tail * HALFLIFE
        segments, edges = oracle_heat(seen, nodes, vaddr_of, clock.now)

        assert hot_segments(heat) == sorted(
            segments.items(), key=lambda item: (-item[1], item[0]))
        adjacency = {}
        for (a, b), weight in sorted(edges.items(),
                                     key=lambda e: (-e[1], e[0])):
            adjacency.setdefault(a, {})[b] = weight
            adjacency.setdefault(b, {})[a] = weight
        assert heat.adjacency() == adjacency
        for index in range(nodes * SEGMENTS_PER_NODE):
            assert heat.heat_of(vaddr_of(index)) == segments.get(
                heat.segment_of(vaddr_of(index)), 0.0)
        by_node = {}
        for segment, value in segments.items():
            owner = space.node_of(segment)
            by_node[owner] = by_node.get(owner, 0.0) + value
        assert heat.node_heat() == pytest.approx(by_node, rel=1e-12)

    def test_each_node_draws_its_own_stream(self):
        """Node i's geometric skips are draws from the stream
        ``f"{seed}:hotness:{i}"`` -- for a node added after the build
        too -- so a sharded worker draws what the in-process run does."""
        cluster = PulseCluster(node_count=2, seed=5)
        assert cluster.add_node() == 2
        period = cluster.params.placement.sample_period
        for node, tracker in enumerate(cluster.heat.trackers):
            assert cluster.accelerators[node].hotness is tracker
            rng = random.Random(f"5:hotness:{node}")
            expected = [
                1 + int(math.log(1.0 - rng.random())
                        / math.log(1.0 - 1.0 / period))
                for _ in range(32)]
            skips = [tracker.countdown]
            for _ in range(31):
                tracker.take(0x1000_0000)
                skips.append(tracker.countdown)
            assert skips == expected


# ---------------------------------------------------------------------------
# Switch MOVED handling
# ---------------------------------------------------------------------------
def send(env, fabric, src, req):
    fabric.send(Message("pulse", src, "switch", 128, req), segments=1)
    env.run()


class TestSwitchMoved:
    def request(self, cur_ptr, status=RequestStatus.RUNNING):
        return TraversalRequest(request_id=(0, 1), program=PROGRAM,
                                cur_ptr=cur_ptr, scratch=b"",
                                status=status)

    def test_moved_frame_retried_at_live_owner(self):
        env, fabric, space, switch, client, nodes = make_switch()
        ptr = space.range_of(0)[0] + 0x100
        req = self.request(ptr)
        send(env, fabric, "client0", req)
        assert len(nodes[0].inbox._items) == 1
        # Segment migrated 0 -> 1; the old owner bounces the straggler.
        switch.rangemap.move(space.range_of(0)[0],
                             space.range_of(0)[0] + 0x1000, 1)
        bounced = req.advanced(ptr, b"", 0, RequestStatus.MOVED)
        send(env, fabric, "mem0", bounced)
        assert counter_value(switch, "switch.moved_redirects") == 1
        assert len(nodes[1].inbox._items) == 1
        delivered = nodes[1].inbox._items[0].payload
        assert delivered.status is RequestStatus.RUNNING

    def test_moved_frame_with_no_live_owner_faults(self):
        env, fabric, space, switch, client, nodes = make_switch()
        ptr = space.range_of(1)[0] + 0x100
        req = self.request(ptr)
        send(env, fabric, "client0", req)
        # mem1 claims the pointer moved, but the live map still says
        # mem1 owns it: the map agrees with the bouncing node, so the
        # pointer has no other home -- a genuine fault, not a race.
        bounced = req.advanced(ptr, b"", 0, RequestStatus.MOVED)
        send(env, fabric, "mem1", bounced)
        assert counter_value(switch, "switch.moved_redirects") == 0
        assert len(client.inbox._items) == 1
        delivered = client.inbox._items[0].payload
        assert delivered.status is RequestStatus.FAULT
        assert "no live owner" in delivered.fault_reason

    def test_switch_rule_count_tracks_map(self):
        env, fabric, space, switch, client, nodes = make_switch()
        assert switch.rangemap.rule_count == 2
        start, _ = space.range_of(0)
        switch.rangemap.move(start, start + 0x1000, 1)
        assert switch.rangemap.rule_count == 3


# ---------------------------------------------------------------------------
# Migration engine (through the cluster)
# ---------------------------------------------------------------------------
class TestMigration:
    def build(self, node_count=2, keys=32):
        cluster = PulseCluster(node_count=node_count)
        table = HashTable(cluster.memory, buckets=64)
        for k in range(keys):
            table.insert(k, bytes([k % 256]) * 8)
        return cluster, table

    def test_migrate_moves_bytes_and_preserves_values(self):
        cluster, table = self.build()
        start, end = cluster.memory.placement.rules_of(0)[0]
        proc = cluster.migrate(start, end, 1)
        cluster.env.run(until=proc)
        assert proc.value > 0
        assert cluster.memory.placement.rules_of(1)
        for k in (0, 7, 31):
            result = cluster.run_traversal(table.find_iterator(), k)
            assert result.ok
            assert result.value[:1] == bytes([k])

    def test_migration_takes_simulated_time(self):
        cluster, table = self.build()
        start, end = cluster.memory.placement.rules_of(0)[0]
        before = cluster.env.now
        proc = cluster.migrate(start, end, 1)
        cluster.env.run(until=proc)
        placement = cluster.params.placement
        expected = proc.value / placement.migration_bandwidth_bytes_per_ns
        assert cluster.env.now - before >= expected

    def test_writes_during_copy_phase_survive(self):
        cluster, _ = self.build()
        vaddr = cluster.memory.alloc(4096, preferred_node=0)
        cluster.memory.write_u64(vaddr, 0x1111)
        proc = cluster.migrate(vaddr, vaddr + 4096, 1)

        def mutate():
            yield cluster.env.timeout(10.0)  # mid phase-1 copy
            cluster.memory.write_u64(vaddr, 0x2222)

        cluster.env.process(mutate())
        cluster.env.run(until=proc)
        assert cluster.memory.placement.node_of(vaddr) == 1
        assert cluster.memory.read_u64(vaddr) == 0x2222

    def test_straggler_long_after_the_fence_is_moved_by_the_map(self):
        # The switch routes a lookup to node 0, where it parks behind a
        # stalled receive pipeline while its bucket migrates to node 1.
        # It is served ~20 ms after the fence (the client's end-to-end
        # timer is lengthened so no retry overtakes it), and the live
        # placement map alone turns it into one MOVED reply and one
        # switch redirect.
        params = SystemParams().with_overrides(network=NetworkParams(
            retransmit_timeout_ns=1_000 * MS))
        cluster = PulseCluster(node_count=2, params=params)
        table = HashTable(cluster.memory, buckets=2, value_bytes=8,
                          partition_nodes=2)
        for k in range(16):
            table.insert(k, bytes([k]) * 8)
        key = next(k for k in range(16) if table.bucket_index(k) == 0)
        head = table.bucket_head(key)
        start, end = cluster.memory.placement.rules_of(0)[0]
        assert start <= head < end

        stall = 20 * MS
        cluster.accelerators[0].rx_unit.hold(stall)
        pending = cluster.submit(table.find_iterator(), key)
        cluster.env.run(until=10 * US)      # parked at node 0
        assert counter_value(cluster, "switch.routed_to_memory") == 1
        cluster.env.run(until=cluster.migrate(start, end, 1))
        assert cluster.memory.placement.node_of(head) == 1
        assert cluster.env.now < stall - 4 * MS

        cluster.env.run(until=pending._process)
        assert pending.result.value == bytes([key]) * 8
        assert [counter_value(cluster, name) for name in (
            "mem0.acc.moved_replies", "switch.moved_redirects")] == [1, 1]

    def test_migrate_to_self_is_a_noop(self):
        cluster, _ = self.build()
        start, end = cluster.memory.placement.rules_of(0)[0]
        proc = cluster.migrate(start, end, 0)
        cluster.env.run(until=proc)
        assert proc.value == 0
        assert cluster.memory.placement.rule_count == 2

    def test_migrate_to_full_destination_fails_cleanly(self):
        cluster = PulseCluster(
            node_count=2, params=with_memory(node_capacity_bytes=64 * 1024))
        a = cluster.memory.alloc(40 * 1024, preferred_node=0)
        cluster.memory.alloc(40 * 1024, preferred_node=1)
        proc = cluster.migrate(a, a + 40 * 1024, 1)
        with pytest.raises(MigrationError):
            cluster.env.run(until=proc)
        # Source must be untouched: still owned and readable.
        assert cluster.memory.placement.node_of(a) == 0
        cluster.memory.write_u64(a, 7)
        assert cluster.memory.read_u64(a) == 7

    def test_destination_filling_during_copy_fails_fence_cleanly(self):
        # The pre-copy capacity check goes stale while phase 1 runs:
        # another allocation can eat the destination's physical space.
        # The fence must re-check and fail atomically -- source intact,
        # no leaked physical reservation -- with a MigrationError (not a
        # raw AllocationError, which would kill the rebalancer loop).
        cluster = PulseCluster(
            node_count=2, params=with_memory(node_capacity_bytes=256 * 1024))
        a = cluster.memory.alloc(128 * 1024, preferred_node=0)
        cluster.memory.write_u64(a, 42)
        proc = cluster.migrate(a, a + 128 * 1024, 1)

        def hog():
            yield cluster.env.timeout(10.0)  # mid phase-1 copy
            cluster.memory.alloc(224 * 1024, preferred_node=1)

        cluster.env.process(hog())
        with pytest.raises(MigrationError):
            cluster.env.run(until=proc)
        assert cluster.memory.placement.node_of(a) == 0
        assert cluster.memory.read_u64(a) == 42
        assert (cluster.memory.allocator.phys_available(1)
                == 256 * 1024 - 224 * 1024)
        snap = cluster.metrics_snapshot()
        assert snap["counters"]["placement.migrations_failed"] == 1

    def test_free_merging_across_boundary_during_copy_survives_fence(self):
        # Frees during the copy can merge blocks across the snapped
        # boundary; the fence re-snaps so transfer_ownership never hits
        # a straddling block mid-switch-over.
        cluster = PulseCluster(node_count=2)
        a = cluster.memory.alloc(4096, preferred_node=0)
        b = cluster.memory.alloc(4096, preferred_node=0)
        proc = cluster.migrate(a, a + 4096, 1)

        def churn():
            yield cluster.env.timeout(10.0)  # mid phase-1 copy
            cluster.memory.free(a)
            cluster.memory.free(b)  # merges into [a, b+4096)

        cluster.env.process(churn())
        cluster.env.run(until=proc)
        assert cluster.memory.placement.node_of(a) == 1
        # The whole merged block followed the migration.
        assert cluster.memory.allocator._arenas[1].free_bytes == 8192
        assert cluster.memory.allocator._arenas[0].free_bytes == 0

    def test_wild_pointer_into_drained_range_faults_not_livelocks(self):
        # After a drain, node 1 live-owns node 0's whole arithmetic
        # range, with unmapped gaps.  A wild pointer into such a gap is
        # arithmetically foreign to node 1; bouncing it RUNNING would
        # make the switch (which routes by the live map) send it right
        # back -- forever.  It must fault instead.
        cluster = PulseCluster(node_count=2)
        lst = LinkedList(cluster.memory, placement=lambda i: 0)
        addrs = [lst.append(k, k) for k in range(1, 6)]
        wild = cluster.memory.addrspace.range_of(0)[1] - 8
        next_offset = lst.layout.offset("next")
        cluster.memory.write_u64(addrs[2] + next_offset, wild)
        draining = cluster.env.process(drain(cluster, 0))
        cluster.env.run(until=draining)
        pending = cluster.submit(lst.find_iterator(), 5)
        cluster.env.run(until=cluster.env.now + 10_000_000.0)
        assert pending.done
        assert not pending.result.ok
        assert "invalid pointer" in pending.result.fault.reason

    def test_migration_metrics_exported(self):
        cluster, _ = self.build()
        start, end = cluster.memory.placement.rules_of(0)[0]
        proc = cluster.migrate(start, end, 1)
        cluster.env.run(until=proc)
        snap = cluster.metrics_snapshot()
        assert snap["counters"]["placement.migrations"] == 1
        assert snap["counters"]["placement.bytes_migrated"] == proc.value


# ---------------------------------------------------------------------------
# Cluster membership: add_node / drain
# ---------------------------------------------------------------------------
class TestMembership:
    def test_add_node_grows_rack(self):
        cluster = PulseCluster(node_count=2)
        node_id = cluster.add_node()
        assert node_id == 2
        assert cluster.node_count == 3
        assert len(cluster.accelerators) == 3
        assert cluster.switch.rangemap.rule_count == 3
        assert cluster.memory.placement.node_of(
            cluster.memory.addrspace.range_of(2)[0]) == 2

    def test_new_node_accepts_allocations_and_traversals(self):
        cluster = PulseCluster(node_count=1)
        cluster.add_node()
        table = HashTable(cluster.memory, buckets=16)
        for k in range(8):
            table.insert(k, b"v" * 8)
        vaddr = cluster.memory.alloc(64, preferred_node=1)
        cluster.memory.write_u64(vaddr, 99)
        assert cluster.memory.read_u64(vaddr) == 99
        result = cluster.run_traversal(table.find_iterator(), 3)
        assert result.ok

    def test_drain_empties_node_while_traversals_run(self):
        cluster = PulseCluster(node_count=2)
        table = HashTable(cluster.memory, buckets=64)
        for k in range(64):
            table.insert(k, bytes([k]) * 8)
        pending = [cluster.submit(table.find_iterator(), k)
                   for k in range(64)]
        draining = cluster.env.process(drain(cluster, 0))
        cluster.env.run(until=draining)
        assert cluster.memory.placement.rules_of(0) == []
        for p in pending:
            if not p.done:
                cluster.env.run(until=p._process)
        assert all(p.result.ok for p in pending)
        for k in (0, 31, 63):
            assert p.result.ok
            result = cluster.run_traversal(table.find_iterator(), k)
            assert result.value[:1] == bytes([k])

    def test_drained_node_receives_no_new_allocations(self):
        cluster = PulseCluster(node_count=2)
        draining = cluster.env.process(drain(cluster, 0))
        cluster.env.run(until=draining)
        for _ in range(8):
            vaddr = cluster.memory.alloc(256)
            assert cluster.memory.placement.node_of(vaddr) == 1

    def test_drain_last_absorbing_node_raises(self):
        cluster = PulseCluster(node_count=1)
        cluster.memory.alloc(256)
        draining = cluster.env.process(drain(cluster, 0))
        with pytest.raises(MigrationError):
            cluster.env.run(until=draining)


# ---------------------------------------------------------------------------
# Rebalancer
# ---------------------------------------------------------------------------
class TestRebalancer:
    def test_fill_imbalance_triggers_migration_to_empty_node(self):
        cluster = PulseCluster(
            node_count=2, params=with_memory(node_capacity_bytes=1 << 20))
        for _ in range(8):
            cluster.memory.alloc(64 * 1024, preferred_node=0)
        fills = cluster.memory.allocator.node_fill_fractions()
        assert fills[0] > fills[1]
        proc = cluster.rebalance_once()
        cluster.env.run(until=proc)
        assert proc.value >= 1
        assert cluster.memory.placement.rules_of(1)
        after = cluster.memory.allocator.node_fill_fractions()
        assert after[0] < fills[0]

    def test_balanced_cluster_does_nothing(self):
        cluster = PulseCluster(node_count=2)
        for node in (0, 1):
            cluster.memory.alloc(64 * 1024, preferred_node=node)
        proc = cluster.rebalance_once()
        cluster.env.run(until=proc)
        assert proc.value == 0

    def test_hot_skew_triggers_migration(self):
        params = SystemParams().with_overrides(
            placement=PlacementParams(fill_imbalance_threshold=1.1,
                                      hot_skew_threshold=1.5,
                                      segment_bytes=4096))
        cluster = PulseCluster(node_count=2, params=params)
        vaddr = cluster.memory.alloc(4096, preferred_node=0)
        for _ in range(64):
            cluster.heat.trackers[0].record(vaddr)
        proc = cluster.rebalance_once()
        cluster.env.run(until=proc)
        assert proc.value >= 1
        assert cluster.memory.placement.node_of(vaddr) == 1

    def test_fill_rebalance_moves_live_bytes_not_freed_space(self):
        cluster = PulseCluster(
            node_count=2, params=with_memory(node_capacity_bytes=1 << 20))
        # Node 0 carries a large freed-but-still-mapped region (cold,
        # zero live bytes) ahead of its live data.  Counting it toward
        # gap contraction would fake progress while the fill gap stays
        # open; the round must move live bytes instead.
        dead = [cluster.memory.alloc(64 * 1024, preferred_node=0)
                for _ in range(4)]
        for vaddr in dead:
            cluster.memory.free(vaddr)
        for _ in range(4):
            cluster.memory.alloc(64 * 1024, preferred_node=0)
        proc = cluster.rebalance_once()
        cluster.env.run(until=proc)
        assert proc.value > 0
        assert cluster.memory.allocator.allocated_bytes(1) > 0

    def test_hotness_fed_by_accelerator_loads(self):
        cluster = PulseCluster(node_count=1)
        table = HashTable(cluster.memory, buckets=16)
        for k in range(16):
            table.insert(k, b"v" * 8)
        for k in range(16):
            cluster.run_traversal(table.find_iterator(), k)
        assert cluster.heat.samples > 0
        snap = cluster.metrics_snapshot()
        assert snap["gauges"]["placement.hot.samples"] > 0
