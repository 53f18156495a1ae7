"""Tests for the client-resident split index (repro.index).

The directory is a hint cache in front of the offloaded traversal
engine: a hit turns a multi-hop pointer chase into one direct READ at
the owning memory node, and every way the hint can be wrong -- segment
migrated away, address unmapped, structure mutated under the cached
pointer -- must NACK or decode-miss back onto the always-correct
traversal path and repair the entry.
"""

import pytest

from repro.core import PulseCluster
from repro.index import IndexEntry, SplitIndexDirectory
from repro.mem import AddressSpace
from repro.obs.metrics import MetricsRegistry
from repro.placement import PlacementMap
from repro.structures import BPlusTree, HashTable, SkipList

VALUE = lambda k: bytes([k % 256, k % 7]) * 4  # noqa: E731


# ---------------------------------------------------------------------------
# Directory unit tests (no simulation)
# ---------------------------------------------------------------------------
class TestSplitIndexDirectory:
    def make(self, capacity=None, **kw):
        self.registry = MetricsRegistry()
        directory = SplitIndexDirectory(registry=self.registry, **kw)
        if capacity is not None:
            directory.capacity = capacity
        return directory

    def test_lookup_counts_hits_and_misses(self):
        d = self.make()
        assert d.lookup(1) is None
        d.learn(1, node_id=0, vaddr=0x1000, epoch=3)
        entry = d.lookup(1)
        assert entry == IndexEntry(node_id=0, vaddr=0x1000, epoch=3)
        assert d.misses.value == 1
        assert d.hits.value == 1

    def test_relearn_counts_repair_not_eviction(self):
        d = self.make(capacity=1)
        d.learn(1, 0, 0x1000, 1)
        d.learn(1, 1, 0x2000, 2)          # refresh in place
        assert len(d._entries) == 1
        assert d.lookup(1).node_id == 1
        assert d.repairs.value == 1
        assert d.evictions.value == 0

    def test_fifo_eviction_at_capacity(self):
        d = self.make(capacity=2)
        d.learn(1, 0, 0x1000, 1)
        d.learn(2, 0, 0x2000, 1)
        d.learn(3, 0, 0x3000, 1)          # evicts key 1 (oldest)
        assert len(d._entries) == 2
        assert d.lookup(1) is None
        assert d.lookup(3) is not None
        assert d.evictions.value == 1

    def test_invalidate(self):
        d = self.make()
        d.learn(1, 0, 0x1000, 1)
        assert d.invalidate(1)
        assert not d.invalidate(1)        # already gone
        assert d.lookup(1) is None
        assert d.invalidations.value == 1

    def test_bulk_load_stamps_live_placement(self):
        space = AddressSpace(2, 1 << 20)
        pmap = PlacementMap(space)
        start0 = space.range_of(0)[0]
        start1 = space.range_of(1)[0]
        d = self.make()
        loaded = d.bulk_load([(10, start0 + 0x80), (20, start1 + 0x80)],
                             pmap)
        assert loaded == 2
        assert d.lookup(10).node_id == 0
        assert d.lookup(20).node_id == 1
        assert d.lookup(10).epoch == pmap.version

    def test_on_move_drops_only_inrange_entries(self):
        d = self.make()
        d.learn(1, 0, 0x1000, 1)
        d.learn(2, 0, 0x5000, 1)
        d.on_move(0x1000, 0x2000, new_owner=1, version=2)
        assert d.lookup(1) is None
        assert d.lookup(2) is not None
        assert d.invalidations.value == 1

    def test_on_move_is_a_noop_in_lazy_mode(self):
        d = self.make(invalidate_on_move=False)
        d.learn(1, 0, 0x1000, 1)
        d.on_move(0x1000, 0x2000, new_owner=1, version=2)
        assert d.lookup(1) is not None    # kept; the NACK path repairs


# ---------------------------------------------------------------------------
# Fast path through the full cluster, per structure
# ---------------------------------------------------------------------------
def build(kind, **cluster_kw):
    cluster = PulseCluster(node_count=2, split_index=True, **cluster_kw)
    if kind == "hashtable":
        structure = HashTable(cluster.memory, buckets=16)
        for k in range(32):
            structure.insert(k, VALUE(k))
        iterator = structure.find_iterator()
        expect = lambda r, k: r.value[:8] == VALUE(k)  # noqa: E731
    elif kind == "btree":
        structure = BPlusTree(cluster.memory, fanout=8)
        for k in range(64):
            structure.insert(k, k * 3 + 1)
        iterator = structure.lookup_iterator()
        expect = lambda r, k: r.value == k * 3 + 1  # noqa: E731
    else:
        structure = SkipList(cluster.memory)
        for k in range(32):
            structure.insert(k, -(k * 5 + 2))   # negative: sign matters
        iterator = structure.find_iterator()
        expect = lambda r, k: r.value == -(k * 5 + 2)  # noqa: E731
    return cluster, structure, iterator, expect


class TestFastPath:
    @pytest.mark.parametrize("kind", ["hashtable", "btree", "skiplist"])
    def test_second_lookup_is_one_direct_read(self, kind):
        cluster, _structure, iterator, expect = build(kind)
        first = cluster.run_traversal(iterator, 7)
        assert first.ok and expect(first, 7)
        assert first.iterations > 1           # real pointer chase

        second = cluster.run_traversal(iterator, 7)
        assert second.ok and expect(second, 7)
        assert second.iterations == 1         # one READ, no traversal
        assert second.hops == 0               # no switch re-routes
        assert second.latency_ns < first.latency_ns
        snap = cluster.metrics_snapshot()["counters"]
        assert snap["index.hits"] == 1
        assert (snap.get("mem0.acc.direct_reads", 0)
                + snap.get("mem1.acc.direct_reads", 0)) == 1

    @pytest.mark.parametrize("kind", ["hashtable", "btree", "skiplist"])
    def test_bulk_load_makes_first_lookup_direct(self, kind):
        cluster, structure, iterator, expect = build(kind)
        loaded = cluster.load_index(structure)
        assert loaded == len(list(structure.index_entries()))
        result = cluster.run_traversal(iterator, 5)
        assert result.ok and expect(result, 5)
        assert result.iterations == 1
        assert cluster.metrics_snapshot()["counters"]["index.hits"] == 1

    def test_cluster_without_index_is_unchanged(self):
        cluster = PulseCluster(node_count=2)
        structure = HashTable(cluster.memory, buckets=16)
        structure.insert(1, VALUE(1))
        assert cluster.indexes == []
        assert cluster.load_index(structure) == 0
        result = cluster.run_traversal(structure.find_iterator(), 1)
        assert result.ok and result.value[:8] == VALUE(1)

    def test_every_client_directory_is_primed(self):
        cluster, structure, iterator, expect = build(
            "hashtable", client_count=2)
        cluster.load_index(structure)
        assert len(cluster.indexes) == 2
        assert len(cluster.indexes[0]._entries) == len(cluster.indexes[1]._entries) > 0
        # Both clients serve hits out of their own directory.
        for k in (3, 4):
            result = cluster.run_traversal(iterator, k)
            assert result.ok and expect(result, k)


# ---------------------------------------------------------------------------
# Staleness: every wrong-hint mode must fall back and repair
# ---------------------------------------------------------------------------
class TestStaleness:
    def migrate_all(self, cluster, src, dst):
        for start, end in list(cluster.memory.placement.rules_of(src)):
            proc = cluster.migrate(start, end, dst)
            cluster.env.run(until=proc)

    def test_lazy_stale_entry_nacks_then_repairs(self):
        cluster, structure, iterator, expect = build(
            "hashtable", split_index_invalidate=False)
        cluster.load_index(structure)
        entry_before = cluster.indexes[0].lookup(9)
        self.migrate_all(cluster, entry_before.node_id,
                         1 - entry_before.node_id)

        # The stale hint sends a direct READ to the old owner, which
        # NACKs; the traversal fallback still returns the right bytes.
        result = cluster.run_traversal(iterator, 9)
        assert result.ok and expect(result, 9)
        snap = cluster.metrics_snapshot()["counters"]
        assert snap["index.stale_nacks"] >= 1

        # The fallback repaired the entry: next lookup is direct again,
        # now served by the new owner.
        entry_after = cluster.indexes[0].lookup(9)
        assert entry_after.node_id == 1 - entry_before.node_id
        repaired = cluster.run_traversal(iterator, 9)
        assert repaired.ok and expect(repaired, 9)
        assert repaired.iterations == 1

    def test_eager_invalidation_on_migration(self):
        cluster, structure, iterator, expect = build("hashtable")
        cluster.load_index(structure)
        occupied_before = len(cluster.indexes[0]._entries)
        self.migrate_all(cluster, 0, 1)
        snap = cluster.metrics_snapshot()["counters"]
        assert snap["index.invalidations"] >= 1
        assert len(cluster.indexes[0]._entries) < occupied_before
        # Invalidated keys take the traversal path and re-learn.
        result = cluster.run_traversal(iterator, 2)
        assert result.ok and expect(result, 2)
        assert cluster.run_traversal(iterator, 2).iterations == 1

    def test_unmapped_address_nacks_to_fallback(self):
        cluster, structure, iterator, expect = build("hashtable")
        # Poison the directory with an owned-but-never-mapped address:
        # the node's translation check must NACK before touching DRAM.
        hole = cluster.memory.addrspace.range_of(0)[1] - 4096
        cluster.indexes[0].learn(3, node_id=0, vaddr=hole,
                                 epoch=cluster.memory.placement.version)
        result = cluster.run_traversal(iterator, 3)
        assert result.ok and expect(result, 3)
        snap = cluster.metrics_snapshot()["counters"]
        assert snap["index.stale_nacks"] == 1
        assert snap["mem0.acc.direct_read_nacks"] == 1

    def test_wrong_node_decode_misses_to_fallback(self):
        # A hint whose bytes decode but don't contain the key (the
        # structure mutated under the cached pointer) must fall back.
        cluster, structure, iterator, expect = build("hashtable")
        cluster.run_traversal(iterator, 1)
        cluster.run_traversal(iterator, 2)
        d = cluster.indexes[0]
        entry2 = d.lookup(2)
        d.learn(1, entry2.node_id, entry2.vaddr, entry2.epoch)

        result = cluster.run_traversal(iterator, 1)
        assert result.ok and expect(result, 1)
        snap = cluster.metrics_snapshot()["counters"]
        assert snap["index.decode_misses"] == 1
        # The fallback repaired key 1's entry.
        assert cluster.run_traversal(iterator, 1).iterations == 1

    def test_btree_leaf_split_decode_misses_to_fallback(self):
        # Cache a leaf address, then split that leaf so the key moves
        # rightward: the direct read lands on a valid leaf that no
        # longer holds the key, and must decode-miss to the traversal.
        cluster = PulseCluster(node_count=2, split_index=True)
        tree = BPlusTree(cluster.memory, fanout=4)
        for k in range(0, 40, 10):
            tree.insert(k, k + 1)
        iterator = tree.lookup_iterator()
        assert cluster.run_traversal(iterator, 30).value == 31
        cached = cluster.indexes[0].lookup(30)

        for k in range(21, 29):          # splits the leaf holding 30
            tree.insert(k, k + 1)
        result = cluster.run_traversal(iterator, 30)
        assert result.ok and result.value == 31
        snap = cluster.metrics_snapshot()["counters"]
        if cluster.indexes[0].lookup(30).vaddr != cached.vaddr:
            assert snap["index.decode_misses"] >= 1
