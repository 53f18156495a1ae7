"""Unit tests for traversal-affinity placement.

Covers the three layers the feature spans:

* **Traversal arenas** -- chain-hinted bump allocation into contiguous
  virtual extents (`DisaggregatedAllocator.arena`), spill, pinning,
  graceful fallback when no extent fits, and the capacity-0 fill guard.
* **Edge-sampled hotness** -- successor-edge recording on the seeded
  geometric skip, canonical undirected keys, decay/pruning, batch/scalar
  equivalence, and an unbiasedness property under strided workloads.
* **Cut-edge rebalancing** -- the greedy affinity phase co-locates
  edge-heavy segments, revalidates gains so symmetric pairs never
  ping-pong, and `_candidates` tie-breaks deterministically; plus the
  `placement.hops_per_traversal` gauge and end-to-end edge sampling
  across inter-node reroutes.
"""

import pytest

from repro.core import PulseCluster
from repro.mem.node import GlobalMemory
from repro.params import PlacementParams, SystemParams
from repro.placement import HotnessTracker
from repro.structures import LinkedList

MB = 1 << 20


# ---------------------------------------------------------------------------
# Traversal arenas
# ---------------------------------------------------------------------------
class TestTraversalArenas:
    def memory(self, nodes=2, capacity=4 * MB):
        return GlobalMemory(node_count=nodes, node_capacity=capacity)

    def test_same_chain_allocates_contiguously(self):
        gm = self.memory()
        arena = gm.arena(gm.new_structure_id())
        addrs = [arena.alloc(64) for _ in range(8)]
        assert addrs == [addrs[0] + 64 * i for i in range(8)]
        extent = gm.allocator.arena_extent_of(addrs[0])
        assert extent is not None
        start, end = extent
        assert start <= addrs[0] and addrs[-1] + 64 <= end
        # The backing bytes are real: round-trip through the extent.
        gm.write(addrs[3], b"affinity")
        assert gm.read(addrs[3], 8) == b"affinity"

    def test_distinct_chains_get_distinct_extents(self):
        gm = self.memory()
        sid = gm.new_structure_id()
        a = gm.arena(sid, chain_hint=0).alloc(64)
        b = gm.arena(sid, chain_hint=1).alloc(64)
        assert (gm.allocator.arena_extent_of(a)
                != gm.allocator.arena_extent_of(b))

    def test_arena_handle_is_cached_per_key(self):
        gm = self.memory()
        sid = gm.new_structure_id()
        assert gm.arena(sid, chain_hint=3) is gm.arena(sid, chain_hint=3)
        assert gm.arena(sid, chain_hint=3) is not gm.arena(sid)

    def test_exhausted_extent_spills_to_a_new_one(self):
        gm = self.memory()
        arena = gm.arena(gm.new_structure_id())
        extent_bytes = gm.allocator.arena_extent_bytes
        addrs = [arena.alloc(64) for _ in range((extent_bytes // 64) + 2)]
        extents = {gm.allocator.arena_extent_of(a) for a in addrs}
        assert len(extents) == 2
        assert len(gm.allocator.arena_extents()) == 2
        # Extent list is sorted by virtual start (the rebalancer and the
        # sharded replicas both rely on this order being deterministic).
        starts = [s for s, _ in gm.allocator.arena_extents()]
        assert starts == sorted(starts)

    def test_preferred_node_pins_the_extent(self):
        gm = self.memory()
        sid = gm.new_structure_id()
        for node in (1, 0, 1):
            vaddr = gm.arena(sid, chain_hint=("pin", node),
                             preferred_node=node).alloc(64)
            assert gm.placement.node_of(vaddr) == node

    def test_oversized_request_gets_a_covering_extent(self):
        gm = self.memory()
        arena = gm.arena(gm.new_structure_id())
        extent_bytes = gm.allocator.arena_extent_bytes
        vaddr = arena.alloc(2 * extent_bytes)
        start, end = gm.allocator.arena_extent_of(vaddr)
        assert end - start >= 2 * extent_bytes
        assert gm.allocator.arena_fallback_allocs == 0

    def test_fallback_to_plain_alloc_when_no_extent_fits(self):
        # Leave less than one extent of virtual space on every node:
        # the arena degrades to plain allocation instead of failing.
        gm = GlobalMemory(node_count=2, node_capacity=8192)
        extent_bytes = gm.allocator.arena_extent_bytes
        for node in (0, 1):
            gm.alloc(8192 - extent_bytes // 2, preferred_node=node)
        arena = gm.arena(gm.new_structure_id())
        vaddr = arena.alloc(64)
        assert gm.allocator.arena_fallback_allocs == 1
        assert gm.allocator.arena_extent_of(vaddr) is None
        gm.write(vaddr, b"\x5a" * 64)
        assert gm.read(vaddr, 64) == b"\x5a" * 64

    def test_arena_blocks_free_like_plain_allocations(self):
        gm = self.memory()
        arena = gm.arena(gm.new_structure_id())
        vaddr = arena.alloc(128)
        node = gm.placement.node_of(vaddr)
        live = gm.allocator.allocated_bytes(node)
        gm.free(vaddr)
        assert gm.allocator.allocated_bytes(node) == live - 128

    def test_structures_route_through_arenas(self):
        gm = self.memory()
        chain = LinkedList(gm)
        chain.extend([(k, k) for k in range(16)])
        assert gm.allocator.arena_extents(), \
            "structure allocations no longer create arena extents"


# ---------------------------------------------------------------------------
# Fill-fraction guards (capacity-0 node)
# ---------------------------------------------------------------------------
class TestFillFractionGuards:
    def test_zero_capacity_node_reads_fill_zero(self):
        gm = GlobalMemory(node_count=2, node_capacity=1 * MB)
        gm.alloc(256, preferred_node=1)
        arena = gm.allocator._arenas[1]
        arena.virt_end = arena.virt_start  # fully-drained: capacity 0
        fills = gm.allocator.node_fill_fractions()
        assert fills[1] == 0.0
        assert fills[0] > 0.0 or fills[0] == 0.0  # still well-defined

    def test_zero_capacity_gauge_does_not_raise(self):
        cluster = PulseCluster(node_count=2, node_capacity=1 * MB)
        cluster.memory.alloc(256, preferred_node=1)
        arena = cluster.memory.allocator._arenas[1]
        arena.virt_end = arena.virt_start
        snapshot = cluster.metrics_snapshot()
        assert snapshot["gauges"]["mem1.fill_fraction"] == 0.0


# ---------------------------------------------------------------------------
# Edge-sampled hotness
# ---------------------------------------------------------------------------
def tracker(sample_period=1, seed=0, clock=lambda: 0.0,
            halflife_ns=1000.0, segment_bytes=4096):
    return HotnessTracker(segment_bytes=segment_bytes,
                          halflife_ns=halflife_ns, clock=clock,
                          sample_period=sample_period, seed=seed)


class TestEdgeSampling:
    def test_edge_key_is_canonical_undirected(self):
        t = tracker()
        t.record_edge(0x1000, 0x9000)
        t.record_edge(0x9000, 0x1000)
        assert t.edge_weight(0x1000, 0x9000) == 2.0
        assert t.edge_weight(0x9000, 0x1000) == 2.0

    def test_same_segment_step_is_a_noop(self):
        t = tracker()
        t.record_edge(0x1000, 0x1040)
        assert t.edge_samples == 0
        assert not t.hot_edges()

    def test_sample_with_prev_records_the_edge(self):
        t = tracker(sample_period=1)
        chain = [0x1000, 0x9000, 0x11000]
        prev = 0
        for vaddr in chain:
            t.sample(vaddr, prev=prev)
            prev = vaddr
        assert t.edge_weight(0x1000, 0x9000) == 1.0
        assert t.edge_weight(0x9000, 0x11000) == 1.0
        assert t.edge_weight(0x1000, 0x11000) == 0.0

    def test_edges_decay_and_prune(self):
        now = [0.0]
        t = tracker(clock=lambda: now[0], halflife_ns=100.0)
        t.record_edge(0x1000, 0x9000, weight=4.0)
        now[0] = 100.0
        assert t.edge_weight(0x1000, 0x9000) == pytest.approx(2.0)
        now[0] = 10_000.0  # ~100 halflives: colder than PRUNE_EPSILON
        assert t.hot_edges() == []
        assert t.edge_weight(0x1000, 0x9000) == 0.0

    def test_hot_edges_sorted_by_weight_then_key(self):
        t = tracker()
        t.record_edge(0x9000, 0x1000, weight=1.0)
        t.record_edge(0x1000, 0x21000, weight=5.0)
        t.record_edge(0x9000, 0x21000, weight=1.0)
        ranked = t.hot_edges()
        assert ranked[0] == (0x1000, 0x21000, 5.0)
        # Equal weights: ordered by canonical (low, high) segment pair.
        assert ranked[1:] == [(0x1000, 0x9000, 1.0),
                              (0x9000, 0x21000, 1.0)]

    def test_adjacency_is_symmetric(self):
        t = tracker()
        t.record_edge(0x1000, 0x9000, weight=3.0)
        graph = t.adjacency()
        assert graph[0x1000] == {0x9000: 3.0}
        assert graph[0x9000] == {0x1000: 3.0}

    def test_external_weight_counts_only_cut_edges(self):
        t = tracker()
        t.record_edge(0x1000, 0x2000, weight=2.0)   # same-owner below
        t.record_edge(0x1000, 0x9000, weight=5.0)   # cross-owner

        class FakeMap:
            def node_of(self, vaddr):
                return 0 if vaddr < 0x8000 else 1

        assert t.external_weight(0x1000, FakeMap()) == 5.0
        assert t.external_weight(0x2000, FakeMap()) == 0.0

    def test_edge_sampling_unbiased_under_strided_workload(self):
        """E[total edge weight] = true cross-segment step count, even
        when the workload's stride matches the sampling period.

        The access pattern repeats with period 4 -- exactly the sample
        period -- so a fixed every-Nth sampler would lock onto one phase
        and over- or under-count the two cross-segment steps per cycle
        by up to 2x.  The geometric skip keeps every step equally likely
        to be sampled; averaged over seeds, the recorded edge weight
        lands on the true count.
        """
        pattern = [0x1000, 0x1040, 0x9000, 0x9040]  # A A B B per cycle
        cycles = 500
        true_cross = 2 * cycles - 1  # A->B and B->A per cycle wrap
        ratios = []
        for seed in range(20):
            t = tracker(sample_period=4, seed=seed)
            prev = 0
            for i in range(4 * cycles):
                vaddr = pattern[i % 4]
                t.sample(vaddr, prev=prev)
                prev = vaddr
            total = sum(w for _a, _b, w in t.hot_edges())
            ratios.append(total / true_cross)
        mean = sum(ratios) / len(ratios)
        assert 0.95 <= mean <= 1.05, ratios


# ---------------------------------------------------------------------------
# Cut-edge rebalancing
# ---------------------------------------------------------------------------
def cut_params(**overrides):
    fields = dict(segment_bytes=64 * 1024, cut_edge_objective=True,
                  cut_min_gain=1.0, migrations_per_round=4)
    fields.update(overrides)
    return SystemParams().with_overrides(placement=PlacementParams(**fields))


class TestCutPhase:
    def build(self, **overrides):
        cluster = PulseCluster(node_count=2, params=cut_params(**overrides),
                               node_capacity=8 * MB)
        a = cluster.memory.alloc(256, preferred_node=0)
        b = cluster.memory.alloc(256, preferred_node=1)
        return cluster, a, b

    def run_round(self, cluster):
        proc = cluster.rebalance_once()
        cluster.env.run(until=proc)
        return proc.value or 0

    def test_cut_phase_co_locates_affine_segments(self):
        cluster, a, b = self.build()
        cluster.placement.tracker.record_edge(a, b, weight=50.0)
        assert self.run_round(cluster) > 0
        assert cluster.placement.rebalancer.cut_moves == 1
        pmap = cluster.memory.placement
        assert pmap.node_of(a) == pmap.node_of(b)

    def test_symmetric_pair_does_not_ping_pong(self):
        # Both endpoints plan a move toward each other; gain
        # revalidation must let only the first one fire, and later
        # rounds must find nothing left to cut.
        cluster, a, b = self.build()
        cluster.placement.tracker.record_edge(a, b, weight=50.0)
        for _ in range(4):
            self.run_round(cluster)
        assert cluster.placement.rebalancer.cut_moves == 1
        pmap = cluster.memory.placement
        assert pmap.node_of(a) == pmap.node_of(b)

    def test_gain_floor_blocks_marginal_moves(self):
        cluster, a, b = self.build(cut_min_gain=10.0)
        cluster.placement.tracker.record_edge(a, b, weight=5.0)
        assert self.run_round(cluster) == 0
        assert cluster.placement.rebalancer.cut_moves == 0

    def test_objective_can_be_disabled(self):
        cluster, a, b = self.build(cut_edge_objective=False)
        cluster.placement.tracker.record_edge(a, b, weight=50.0)
        assert self.run_round(cluster) == 0
        assert cluster.placement.rebalancer.cut_moves == 0

    def test_candidates_tie_break_by_segment_id(self):
        # With no heat and no edges every span scores (0.0, 0.0):
        # the order must fall back to ascending segment start, in both
        # cold-first and hot-first modes (satellite: deterministic plans
        # for sharded/unsharded equivalence).
        cluster, _a, _b = self.build()
        for _ in range(6):
            cluster.memory.alloc(256, preferred_node=0)
        rebalancer = cluster.placement.rebalancer
        for prefer_cold in (True, False):
            spans = rebalancer._candidates(0, prefer_cold=prefer_cold)
            starts = [start for start, _end in spans]
            assert starts == sorted(starts)
            assert len(starts) >= 1


# ---------------------------------------------------------------------------
# End-to-end: hops gauge + edge sampling across reroutes
# ---------------------------------------------------------------------------
class TestHopsEndToEnd:
    def interleaved_cluster(self):
        params = SystemParams().with_overrides(placement=PlacementParams(
            segment_bytes=4096, sample_period=1))
        cluster = PulseCluster(node_count=2, params=params,
                               node_capacity=8 * MB)
        chain = LinkedList(cluster.memory, placement=lambda o: o % 2)
        chain.extend([(k, k * 3) for k in range(24)])
        return cluster, chain.find_iterator()

    def test_hops_per_traversal_gauge(self):
        cluster, finder = self.interleaved_cluster()
        assert cluster.metrics_snapshot()[
            "gauges"]["placement.hops_per_traversal"] == 0.0
        for key in (7, 15, 23):
            assert cluster.run_traversal(finder, key).ok
        snapshot = cluster.metrics_snapshot()
        gauge = snapshot["gauges"]["placement.hops_per_traversal"]
        counters = snapshot["counters"]
        assert gauge > 0.0
        assert gauge == pytest.approx(
            counters["switch.rerouted_node_to_node"]
            / counters["switch.returned_to_client"])

    def test_cut_edges_sampled_across_reroutes(self):
        # The alternating chain crosses nodes on every step; the
        # previous-load address must survive the inter-node reroute
        # continuation for the tracker to see those cut edges.
        cluster, finder = self.interleaved_cluster()
        assert cluster.run_traversal(finder, 23).ok
        tracker_ = cluster.placement.tracker
        assert tracker_.edge_samples > 0
        pmap = cluster.memory.placement
        cross = [(a, b, w) for a, b, w in tracker_.hot_edges()
                 if pmap.node_of(a) != pmap.node_of(b)]
        assert cross, "no cross-node successor edges were recorded"
