"""Unit tests for the per-core translation cache (TLB) and the
workspace MachinePool, plus the rack-level integration check that both
report through the metrics registry."""

import pytest

from repro.core import PulseCluster
from repro.core.workspace import MachinePool
from repro.isa import assemble
from repro.mem.translation import (
    PERM_READ,
    PERM_WRITE,
    RangeEntry,
    RangeTranslationTable,
    TranslationCache,
)
from repro.obs.metrics import MetricsRegistry
from repro.params import AcceleratorParams, SystemParams
from repro.structures import LinkedList


class CountingTable(RangeTranslationTable):
    """A range table that counts the walks a TLB sends it."""

    lookups = 0

    def lookup(self, vaddr, size=1):
        self.lookups += 1
        return super().lookup(vaddr, size)


def make_table(ranges):
    table = CountingTable()
    for start, end, phys in ranges:
        table.insert(RangeEntry(start, end, phys))
    return table


class TestTranslationCache:
    def test_first_lookup_misses_then_hits(self):
        table = make_table([(0x1000, 0x2000, 0x0)])
        tlb = TranslationCache(table, capacity=4)
        entry = tlb.lookup(0x1100, 16)
        assert entry is not None and entry.translate(0x1100) == 0x100
        assert (tlb.hits.value, tlb.misses.value) == (0, 1)
        assert tlb.lookup(0x1200, 16) is entry
        assert (tlb.hits.value, tlb.misses.value) == (1, 1)

    def test_cached_hit_skips_the_backing_table(self):
        table = make_table([(0x1000, 0x2000, 0x0)])
        tlb = TranslationCache(table, capacity=4)
        tlb.lookup(0x1100)
        backing_lookups = table.lookups
        tlb.lookup(0x1100)
        assert table.lookups == backing_lookups

    def test_table_misses_are_never_cached(self):
        table = make_table([(0x1000, 0x2000, 0x0)])
        tlb = TranslationCache(table, capacity=4)
        assert tlb.lookup(0xDEAD0000) is None
        assert tlb.lookup(0xDEAD0000) is None
        assert tlb.misses.value == 2
        assert len(tlb.mru) == 0

    def test_mru_eviction_at_capacity(self):
        # Physically scattered so the table cannot coalesce them.
        ranges = [(i * 0x1000, (i + 1) * 0x1000, (9 - i) * 0x10000)
                  for i in range(1, 5)]
        table = make_table(ranges)
        tlb = TranslationCache(table, capacity=2)
        tlb.lookup(0x1000)
        tlb.lookup(0x2000)
        tlb.lookup(0x1000)          # refresh: 0x1000 is now MRU
        tlb.lookup(0x3000)          # evicts the LRU entry (0x2000's)
        assert len(tlb.mru) == 2
        backing = table.lookups
        tlb.lookup(0x1000)          # still cached
        assert table.lookups == backing
        tlb.lookup(0x2000)          # was evicted: consults the table
        assert table.lookups == backing + 1

    def test_invalidated_by_table_insert(self):
        table = make_table([(0x1000, 0x2000, 0x0)])
        tlb = TranslationCache(table, capacity=4)
        tlb.lookup(0x1100)
        table.insert(RangeEntry(0x8000, 0x9000, 0x4000))
        backing = table.lookups
        tlb.lookup(0x1100)          # stale cache flushed; re-walks table
        assert table.lookups == backing + 1
        assert tlb.misses.value == 2

    def test_invalidated_by_permission_change(self):
        table = make_table([(0x1000, 0x2000, 0x0)])
        tlb = TranslationCache(table, capacity=4)
        tlb.lookup(0x1100)
        table.entries[0].perms = PERM_READ
        table.version += 1
        entry = tlb.lookup(0x1100)
        assert entry.perms == PERM_READ
        assert not entry.perms & PERM_WRITE

    def test_counters_feed_the_registry(self):
        registry = MetricsRegistry()
        table = make_table([(0x1000, 0x2000, 0x0)])
        tlb = TranslationCache(
            table, capacity=4,
            hit_counter=registry.counter("acc.tlb.hits"),
            miss_counter=registry.counter("acc.tlb.misses"))
        tlb.lookup(0x1100)
        tlb.lookup(0x1100)
        snap = registry.snapshot()
        assert snap["counters"]["acc.tlb.hits"] == 1
        assert snap["counters"]["acc.tlb.misses"] == 1
        assert tlb.hits is registry.counter("acc.tlb.hits")

    def test_rejects_degenerate_capacity(self):
        with pytest.raises(ValueError):
            TranslationCache(make_table([]), capacity=0)


PROGRAM_A = "LOAD 0 16\nMOVE sp[0] data[0]\nRETURN"
PROGRAM_B = "LOAD 0 16\nMOVE sp[8] data[8]\nRETURN"


class TestMachinePool:
    def test_release_then_acquire_reuses_the_frame(self):
        pool = MachinePool(capacity=4)
        program = assemble(PROGRAM_A)
        machine = pool.acquire(program)
        pool.release(machine)
        assert pool.acquire(program) is machine

    def test_frames_are_keyed_by_program_content(self):
        pool = MachinePool(capacity=4)
        prog_a, prog_b = assemble(PROGRAM_A), assemble(PROGRAM_B)
        machine_a = pool.acquire(prog_a)
        pool.release(machine_a)
        assert pool.acquire(prog_b) is not machine_a
        # Content digest, not object identity: a re-assembled copy of
        # the same source reuses the retained frame.
        assert pool.acquire(assemble(PROGRAM_A)) is machine_a

    def test_capacity_bounds_retention(self):
        pool = MachinePool(capacity=1)
        program = assemble(PROGRAM_A)
        first, second = pool.acquire(program), pool.acquire(program)
        pool.release(first)
        pool.release(second)        # beyond capacity: dropped
        assert pool._retained == 1
        assert pool.acquire(program) is first
        assert pool.acquire(program) is not second

    def test_counters(self):
        registry = MetricsRegistry()
        pool = MachinePool(
            capacity=4,
            reused=registry.counter("ws.reused"),
            allocated=registry.counter("ws.allocated"))
        program = assemble(PROGRAM_A)
        machine = pool.acquire(program)
        pool.release(machine)
        pool.acquire(program)
        snap = registry.snapshot()
        assert snap["counters"]["ws.allocated"] == 1
        assert snap["counters"]["ws.reused"] == 1


class TestRackIntegration:
    def test_tlb_and_workspace_counters_in_snapshot(self):
        cluster = PulseCluster(node_count=1)
        lst = LinkedList(cluster.memory)
        lst.extend((k, k * 2) for k in range(1, 33))
        finder = lst.find_iterator()
        for key in (8, 16, 32):
            result = cluster.run_traversal(finder, key)
            assert result.value == key * 2
        counters = cluster.registry.snapshot()["counters"]
        # Range locality: a 32-hop chain walk in one allocation range
        # should be nearly all TLB hits after the first iteration.
        assert counters["mem0.acc.tlb.hits"] > 0
        assert counters["mem0.acc.tlb.misses"] >= 1
        assert counters["mem0.acc.tlb.hits"] > \
               counters["mem0.acc.tlb.misses"]
        # Three requests for the same kernel: one frame allocated, the
        # rest reuse it.
        assert counters["mem0.acc.workspace.allocated"] == 1
        assert counters["mem0.acc.workspace.reused"] == 2

    def test_full_width_group_reuses_every_frame(self):
        """The pool retains a whole lane group's frames even when the
        group is wider than ``workspaces_per_core`` (16): the second
        32-lane burst allocates nothing."""
        params = SystemParams(accelerator=AcceleratorParams(cores=1))
        cluster = PulseCluster(node_count=1, batch_size=32, params=params)
        lst = LinkedList(cluster.memory)
        lst.extend((k, k * 2) for k in range(1, 33))
        finder = lst.find_iterator()
        for _ in range(2):
            pendings = cluster.submit_many(
                [(finder, (key,)) for key in range(1, 33)])
            cluster.env.run()
            assert all(p.result.ok for p in pendings)
        counters = cluster.registry.snapshot()["counters"]
        assert counters["mem0.acc.batch.groups"] == 2
        assert counters["mem0.acc.workspace.allocated"] == 32
        assert counters["mem0.acc.workspace.reused"] == 32
