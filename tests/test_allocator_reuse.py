"""Allocator free-list correctness: reuse, splitting, merging, arenas.

The old allocator kept freed blocks in exact-size buckets, so mixed-size
churn (free 1 KB, alloc 256 B) leaked the space forever and eventually
exhausted the bump pointer.  The rewritten best-fit free list splits and
re-merges blocks; these tests pin that behaviour plus the arena APIs the
migration engine depends on.
"""

import pytest

from repro.mem import AddressSpace
from repro.mem.allocator import (AllocationError, DisaggregatedAllocator,
                                 PlacementPolicy)
from repro.mem.translation import RangeTranslationTable
from repro.obs.metrics import MetricsRegistry


def make_allocator(nodes=1, capacity=1 << 20,
                   policy=PlacementPolicy.PARTITIONED):
    space = AddressSpace(nodes, capacity)
    tables = [RangeTranslationTable(capacity=64) for _ in range(nodes)]
    return DisaggregatedAllocator(space, tables, policy)


class TestMixedSizeReuse:
    def test_smaller_alloc_reuses_part_of_freed_block(self):
        alloc = make_allocator()
        big = alloc.alloc(1024)
        tail = alloc.alloc(64)  # pins the bump past the big block
        alloc.free(big)
        small = alloc.alloc(256)
        assert small == big  # best-fit reuses the freed block's head
        assert alloc.reuse_count == 1
        assert alloc.split_count == 1
        assert alloc._arenas[0].free_bytes == 1024 - 256
        assert tail != small

    def test_split_remainder_merges_back_on_free(self):
        alloc = make_allocator()
        big = alloc.alloc(1024)
        alloc.alloc(64)
        alloc.free(big)
        small = alloc.alloc(256)
        alloc.free(small)
        # The 256 B piece re-merges with the 768 B remainder: the next
        # 1 KB allocation fits without touching the bump pointer.
        assert alloc.merge_count >= 1
        again = alloc.alloc(1024)
        assert again == big

    def test_mixed_size_churn_does_not_grow_footprint(self):
        alloc = make_allocator(capacity=64 * 1024)
        # Churn far more bytes than the node holds; without reuse the
        # bump pointer would run off the end of the arena.
        for round_ in range(64):
            a = alloc.alloc(4096)
            b = alloc.alloc(512)
            alloc.free(a)
            c = alloc.alloc(1024)
            alloc.free(b)
            alloc.free(c)
        assert alloc.allocated_bytes(0) == 0
        assert alloc.reuse_count > 0

    def test_exact_fit_preferred_over_larger_block(self):
        alloc = make_allocator()
        a = alloc.alloc(1024)
        pad1 = alloc.alloc(8)
        b = alloc.alloc(256)
        alloc.alloc(8)
        alloc.free(a)
        alloc.free(b)
        assert pad1  # layout: [a][pad1][b][pad2]
        assert alloc.alloc(256) == b  # exact fit wins, not a's head

    def test_free_unknown_address_raises(self):
        alloc = make_allocator()
        with pytest.raises(AllocationError):
            alloc.free(0xDEAD)

    def test_double_free_raises(self):
        alloc = make_allocator()
        vaddr = alloc.alloc(64)
        alloc.free(vaddr)
        with pytest.raises(AllocationError):
            alloc.free(vaddr)

    def test_accounting_tracks_live_and_free(self):
        alloc = make_allocator()
        a = alloc.alloc(100)  # aligned up to 104
        b = alloc.alloc(200)  # aligned up to 200
        assert alloc.allocated_bytes(0) == 104 + 200
        alloc.free(a)
        assert alloc.allocated_bytes(0) == 200
        assert alloc._arenas[0].free_bytes == 104
        alloc.free(b)
        assert alloc.allocated_bytes(0) == 0
        assert b


class TestArenaApis:
    def test_adopt_and_release_physical_round_trip(self):
        alloc = make_allocator(nodes=2)
        phys = alloc.adopt_physical(1, 4096)
        assert alloc.phys_available(1) == (1 << 20) - 4096
        alloc.release_physical(1, phys, 4096)
        assert alloc.phys_available(1) == 1 << 20
        # The hole is really reusable: the next adoption lands in it.
        assert alloc.adopt_physical(1, 2048) == phys

    def test_release_merges_adjacent_holes(self):
        alloc = make_allocator(nodes=2)
        p1 = alloc.adopt_physical(1, 1024)
        p2 = alloc.adopt_physical(1, 1024)
        alloc.release_physical(1, p1, 1024)
        alloc.release_physical(1, p2, 1024)
        # Merged into one 2 KB hole: a 2 KB adoption fits at p1.
        assert alloc.adopt_physical(1, 2048) == p1

    def test_transfer_ownership_moves_live_accounting(self):
        alloc = make_allocator(nodes=2)
        vaddr = alloc.alloc(4096, preferred_node=0)
        moved = alloc.transfer_ownership(vaddr, vaddr + 4096, 0, 1)
        assert moved == 4096
        assert alloc.allocated_bytes(0) == 0
        assert alloc.allocated_bytes(1) == 4096

    def test_transfer_moves_contained_free_blocks(self):
        alloc = make_allocator(nodes=2)
        a = alloc.alloc(1024, preferred_node=0)
        b = alloc.alloc(1024, preferred_node=0)
        alloc.free(a)
        alloc.transfer_ownership(a, b + 1024, 0, 1)
        assert alloc._arenas[0].free_bytes == 0
        assert alloc._arenas[1].free_bytes == 1024

    def test_transfer_ownership_straddle_raises_without_mutation(self):
        alloc = make_allocator(nodes=2)
        a = alloc.alloc(1024, preferred_node=0)
        b = alloc.alloc(1024, preferred_node=0)
        c = alloc.alloc(1024, preferred_node=0)
        alloc.free(a)
        alloc.free(c)
        # The range contains a movable free block (a) and live bytes (b)
        # before the straddling block (c): the straddle check must fire
        # before any of them is touched.
        with pytest.raises(AllocationError):
            alloc.transfer_ownership(a, c + 512, 0, 1)
        assert alloc._arenas[0].free_bytes == 2048
        assert alloc._arenas[1].free_bytes == 0
        assert alloc.allocated_bytes(0) == 1024
        assert alloc.allocated_bytes(1) == 0
        assert b in alloc.live_allocations

    def test_live_bytes_in_counts_only_live_overlap(self):
        alloc = make_allocator(nodes=2)
        a = alloc.alloc(4096, preferred_node=0)
        b = alloc.alloc(4096, preferred_node=0)
        alloc.free(b)
        assert alloc.live_bytes_in(a, a + 4096) == 4096
        assert alloc.live_bytes_in(a + 1024, a + 2048) == 1024
        assert alloc.live_bytes_in(b, b + 4096) == 0

    def test_snap_range_widens_to_block_boundaries(self):
        alloc = make_allocator()
        a = alloc.alloc(1024)
        start, end = alloc.snap_range(0, a + 100, a + 200)
        assert start == a
        assert end == a + 1024

    def test_set_allocatable_diverts_placement(self):
        alloc = make_allocator(nodes=2, policy=PlacementPolicy.UNIFORM)
        alloc.set_allocatable(0, False)
        for _ in range(4):
            vaddr = alloc.alloc(64)
            node = alloc.addrspace.node_of(vaddr)
            assert node == 1
        # Even an explicit preference for the draining node is diverted.
        vaddr = alloc.alloc(64, preferred_node=0)
        node = alloc.addrspace.node_of(vaddr)
        assert node == 1


class TestMetricsExport:
    def test_fill_fraction_gauges_per_node(self):
        alloc = make_allocator(nodes=2, capacity=1 << 20)
        registry = MetricsRegistry()
        alloc.attach_metrics(registry)
        alloc.alloc(1 << 18, preferred_node=0)
        snap = registry.snapshot()
        assert snap["gauges"]["mem0.fill_fraction"] == pytest.approx(0.25)
        assert snap["gauges"]["mem1.fill_fraction"] == 0.0
        assert snap["gauges"]["mem0.allocated_bytes"] == 1 << 18
        assert snap["gauges"]["mem1.allocated_bytes"] == 0

    def test_fragmentation_and_reuse_gauges(self):
        alloc = make_allocator()
        registry = MetricsRegistry()
        alloc.attach_metrics(registry)
        a = alloc.alloc(1024)
        alloc.alloc(64)
        alloc.free(a)
        alloc.alloc(256)
        snap = registry.snapshot()
        assert snap["gauges"]["alloc.fragmentation_bytes"] == 768
        assert snap["gauges"]["alloc.block_reuses"] == 1
        assert snap["gauges"]["alloc.block_splits"] == 1

    def test_gauges_match_fill_fraction_api(self):
        alloc = make_allocator(nodes=2)
        registry = MetricsRegistry()
        alloc.attach_metrics(registry)
        alloc.alloc(4096, preferred_node=1)
        snap = registry.snapshot()
        fills = alloc.node_fill_fractions()
        assert snap["gauges"]["mem0.fill_fraction"] == fills[0]
        assert snap["gauges"]["mem1.fill_fraction"] == fills[1]
