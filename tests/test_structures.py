"""Tests for data structures: functional correctness of layouts, builds,
and pulse kernels (run via the zero-time reference executor)."""

import pytest

from repro.mem import GlobalMemory
from repro.structures import (
    BPlusTree,
    BinarySearchTree,
    HashTable,
    LinkedList,
    SkipList,
)
from repro.structures.base import MAX_KEY, StructureError
from repro.structures.hashtable import hash_u64
from tests.helpers import (btree_height, btree_items, chain_length,
                           find_reference, home_of, run_functional)


@pytest.fixture
def memory():
    return GlobalMemory(node_count=2, node_capacity=8 << 20)


class TestLinkedList:
    def test_append_and_reference_find(self, memory):
        lst = LinkedList(memory)
        lst.extend((k, k * 3) for k in range(1, 11))
        assert [find_reference(lst, k) for k in range(1, 11)] == [
            k * 3 for k in range(1, 11)]
        assert find_reference(lst, 7) == 21
        assert find_reference(lst, 99) is None

    def test_find_kernel_matches_reference(self, memory):
        lst = LinkedList(memory)
        lst.extend((k, -k) for k in range(1, 51))
        finder = lst.find_iterator()
        for key in (1, 25, 50, 77):
            result = run_functional(finder, memory.read, key)
            assert result.value == find_reference(lst, key)

    def test_find_iterations_equal_position(self, memory):
        lst = LinkedList(memory)
        lst.extend((k, k) for k in range(1, 21))
        finder = lst.find_iterator()
        result = run_functional(finder, memory.read, 13)
        assert result.iterations == 13

    def test_walk_kernel_stops_at_n(self, memory):
        lst = LinkedList(memory)
        lst.extend((k * 100, k) for k in range(1, 21))
        walker = lst.walk_iterator()
        result = run_functional(walker, memory.read, 5)
        assert result.value == 500
        assert result.iterations == 5

    def test_walk_clamps_at_list_end(self, memory):
        lst = LinkedList(memory)
        lst.extend((k, k) for k in range(1, 4))
        walker = lst.walk_iterator()
        result = run_functional(walker, memory.read, 50)
        assert result.iterations == 3

    def test_sum_kernel(self, memory):
        lst = LinkedList(memory)
        values = [7, -3, 12, 0, 5]
        lst.extend(enumerate(values))
        total, count = run_functional(lst.sum_iterator(), memory.read).value
        assert total == sum(values)
        assert count == len(values)

    def test_large_value_padding(self, memory):
        lst = LinkedList(memory, value_bytes=240)
        assert lst.layout.size == 256
        lst.append(1, 42)
        assert find_reference(lst, 1) == 42

    def test_empty_list_find_raises(self, memory):
        lst = LinkedList(memory)
        with pytest.raises(StructureError):
            lst.find_iterator().init(1)

    def test_key_range_enforced(self, memory):
        lst = LinkedList(memory)
        with pytest.raises(StructureError):
            lst.append(1 << 63, 0)
        with pytest.raises(StructureError):
            lst.append(-1, 0)


class TestHashTable:
    def test_insert_find_round_trip(self, memory):
        table = HashTable(memory, buckets=16, value_bytes=16)
        for key in range(100):
            table.insert(key, f"v{key:04d}".encode().ljust(16, b"\0"))
        finder = table.find_iterator()
        for key in (0, 17, 63, 99):
            result = run_functional(finder, memory.read, key)
            assert result.value == f"v{key:04d}".encode().ljust(16, b"\0")

    def test_missing_key_not_found(self, memory):
        table = HashTable(memory, buckets=4, value_bytes=8)
        table.insert(1, b"present!")
        result = run_functional(table.find_iterator(), memory.read, 2)
        assert result.value is None

    def test_empty_bucket_terminates_in_one_iteration(self, memory):
        table = HashTable(memory, buckets=4, value_bytes=8)
        result = run_functional(table.find_iterator(), memory.read, 5)
        assert result.value is None
        assert result.iterations == 1  # sentinel only

    def test_node_size_is_256_by_default(self, memory):
        table = HashTable(memory, buckets=1)
        assert table.layout.size == 256
        assert table.find_iterator().program.load_window == (0, 256)

    def test_chain_length_matches_inserts(self, memory):
        table = HashTable(memory, buckets=1, value_bytes=8)
        for key in range(20):
            table.insert(key, b"xxxxxxxx")
        assert chain_length(table, 0) == 20

    def test_partitioning_keeps_chains_on_one_node(self, memory):
        table = HashTable(memory, buckets=8, value_bytes=8,
                          partition_nodes=2)
        for key in range(200):
            table.insert(key, b"yyyyyyyy")
        # Every node of every chain lives on the bucket's node.
        for bucket in range(8):
            expected_node = bucket % 2
            addr = table._sentinels[bucket]
            next_offset = table.layout.offset("next")
            while addr:
                assert home_of(memory.addrspace, addr) == expected_node
                addr = memory.read_u64(addr + next_offset)

    def test_update_kernel_writes_value(self, memory):
        table = HashTable(memory, buckets=2, value_bytes=8)
        table.insert(5, (111).to_bytes(8, "little"))
        updater = table.update_iterator()
        result = run_functional(updater, memory.read, 5, 999,
                                        write_fn=memory.write)
        assert result.value is True
        assert int.from_bytes(find_reference(table, 5), "little") == 999

    def test_hash_is_deterministic(self):
        assert hash_u64(12345) == hash_u64(12345)
        assert hash_u64(1) != hash_u64(2)

    def test_oversized_value_rejected(self, memory):
        table = HashTable(memory, buckets=1, value_bytes=8)
        with pytest.raises(StructureError):
            table.insert(1, b"123456789")


class TestBPlusTree:
    def _tree(self, memory, n=500, fanout=12):
        tree = BPlusTree(memory, fanout=fanout)
        tree.bulk_load([(k * 2, k * 2 + 1) for k in range(n)])
        return tree

    def test_bulk_load_and_reference_lookup(self, memory):
        tree = self._tree(memory)
        assert find_reference(tree, 100) == 101
        assert find_reference(tree, 101) is None
        assert btree_height(tree) >= 3

    def test_items_reference_sorted(self, memory):
        tree = self._tree(memory, n=100)
        items = btree_items(tree)
        assert items == [(k * 2, k * 2 + 1) for k in range(100)]

    def test_lookup_kernel_matches_reference(self, memory):
        tree = self._tree(memory)
        lookup = tree.lookup_iterator()
        for key in (0, 2, 500, 998, 3, 997):
            result = run_functional(lookup, memory.read, key)
            assert result.value == find_reference(tree, key)

    def test_lookup_iterations_equal_height(self, memory):
        tree = self._tree(memory)
        result = run_functional(tree.lookup_iterator(), memory.read, 500)
        assert result.iterations == btree_height(tree)

    def test_scan_collect_kernel(self, memory):
        tree = self._tree(memory, n=200)
        scan = tree.scan_collect_iterator(limit=25)
        result = run_functional(scan, memory.read, 100)
        assert len(result.value) == 25
        assert result.value == [100 + 2 * i for i in range(25)]

    def test_scan_collect_clamps_at_tree_end(self, memory):
        tree = self._tree(memory, n=50)
        scan = tree.scan_collect_iterator(limit=100)
        result = run_functional(scan, memory.read, 90)
        assert result.value == [90 + 2 * i for i in range(5)]

    def test_scan_count_kernel(self, memory):
        tree = self._tree(memory, n=300)
        scan = tree.scan_count_iterator(limit=40)
        result = run_functional(scan, memory.read, 100)
        count, checksum = result.value
        assert count >= 40  # per-leaf granularity overshoots slightly
        expected_keys = [100 + 2 * i for i in range(count)]
        assert checksum == sum(expected_keys) % 2**64

    def test_aggregate_sum_min_max_avg(self, memory):
        tree = BPlusTree(memory, fanout=8)
        pairs = [(ts, (ts % 7) - 3) for ts in range(0, 1000, 2)]
        tree.bulk_load(pairs)
        window = [v for ts, v in pairs if 100 <= ts < 300]
        for op, expected in [
            ("sum", sum(window)),
            ("min", min(window)),
            ("max", max(window)),
            ("avg", sum(window) / len(window)),
        ]:
            agg = tree.aggregate_iterator(op)
            result = run_functional(agg, memory.read, 100, 300)
            assert result.value == pytest.approx(expected), op

    def test_aggregate_empty_window(self, memory):
        tree = BPlusTree(memory, fanout=8)
        tree.bulk_load([(k, k) for k in range(0, 100, 10)])
        agg = tree.aggregate_iterator("min")
        result = run_functional(agg, memory.read, 3, 9)
        assert result.value is None

    def test_insert_then_lookup(self, memory):
        tree = BPlusTree(memory, fanout=4)
        import random
        rng = random.Random(42)
        keys = list(range(0, 400, 2))
        rng.shuffle(keys)
        for key in keys:
            tree.insert(key, key + 1)
        assert tree.size == 200
        for key in (0, 100, 398):
            assert find_reference(tree, key) == key + 1
        assert find_reference(tree, 399) is None
        # The leaf chain stays sorted after random inserts + splits.
        items = btree_items(tree)
        assert items == sorted(items)

    def test_insert_overwrites_existing(self, memory):
        tree = BPlusTree(memory, fanout=4)
        tree.insert(5, 50)
        tree.insert(5, 99)
        assert tree.size == 1
        assert find_reference(tree, 5) == 99

    def test_insert_kernel_visible(self, memory):
        """Kernels see keys added by insert(), not just bulk_load."""
        tree = BPlusTree(memory, fanout=4)
        for key in range(64):
            tree.insert(key, key * 10)
        lookup = tree.lookup_iterator()
        assert run_functional(lookup, memory.read, 33).value == 330

    def test_fill_factor_spreads_leaves(self, memory):
        full = BPlusTree(memory, fanout=8)
        full.bulk_load([(k, k) for k in range(64)])
        loose = BPlusTree(memory, fanout=8)
        loose.bulk_load([(k + 10_000, k) for k in range(64)],
                        fill_factor=0.5)
        scan_full = full.scan_collect_iterator(limit=32)
        scan_loose = loose.scan_collect_iterator(limit=32)
        r_full = run_functional(scan_full, memory.read, 0)
        r_loose = run_functional(scan_loose, memory.read, 10_000)
        assert r_loose.iterations > r_full.iterations

    def test_unsorted_bulk_load_rejected(self, memory):
        tree = BPlusTree(memory)
        with pytest.raises(StructureError):
            tree.bulk_load([(2, 0), (1, 0)])

    def test_double_bulk_load_rejected(self, memory):
        tree = BPlusTree(memory)
        tree.bulk_load([(1, 1)])
        with pytest.raises(StructureError):
            tree.bulk_load([(2, 2)])


class TestBinarySearchTree:
    def test_insert_and_find(self, memory):
        bst = BinarySearchTree(memory)
        for key in (50, 25, 75, 10, 30, 60, 90):
            bst.insert(key, key * 2)
        finder = bst.find_iterator()
        for key in (50, 10, 90):
            assert run_functional(finder, memory.read, key).value == key * 2
        assert run_functional(finder, memory.read, 55).value is None

    def test_lower_bound_kernel(self, memory):
        bst = BinarySearchTree(memory)
        for key in (10, 20, 30, 40):
            bst.insert(key, -key)
        lb = bst.lower_bound_iterator()
        assert run_functional(lb, memory.read, 25).value == (30, -30)
        assert run_functional(lb, memory.read, 40).value == (40, -40)
        assert run_functional(lb, memory.read, 41).value is None

    def test_overwrite_existing_key(self, memory):
        bst = BinarySearchTree(memory)
        bst.insert(5, 1)
        bst.insert(5, 2)
        assert bst.size == 1
        assert find_reference(bst, 5) == 2

    def test_kernel_matches_reference_on_random_tree(self, memory):
        import random
        rng = random.Random(7)
        bst = BinarySearchTree(memory)
        keys = rng.sample(range(10_000), 200)
        for key in keys:
            bst.insert(key, key ^ 0xFF)
        finder = bst.find_iterator()
        for key in keys[:20] + [10_001, 5]:
            assert (run_functional(finder, memory.read, key).value
                    == find_reference(bst, key))


class TestSkipList:
    def test_insert_and_find(self, memory):
        sl = SkipList(memory, seed=3)
        for key in range(0, 200, 2):
            sl.insert(key, key + 7)
        finder = sl.find_iterator()
        for key in (0, 100, 198):
            assert run_functional(finder, memory.read, key).value == key + 7
        assert run_functional(finder, memory.read, 101).value is None

    def test_skip_faster_than_linear(self, memory):
        """The skip structure hops past nodes: iterations << n."""
        sl = SkipList(memory, seed=1)
        n = 256
        for key in range(n):
            sl.insert(key, key)
        finder = sl.find_iterator()
        result = run_functional(finder, memory.read, n - 1)
        assert result.value == n - 1
        assert result.iterations < n / 2

    def test_overwrite_existing(self, memory):
        sl = SkipList(memory)
        sl.insert(1, 10)
        sl.insert(1, 20)
        assert sl.size == 1
        assert find_reference(sl, 1) == 20

    def test_kernel_matches_reference(self, memory):
        import random
        rng = random.Random(11)
        sl = SkipList(memory, seed=5)
        keys = rng.sample(range(100_000), 150)
        for key in keys:
            sl.insert(key, key % 1000)
        finder = sl.find_iterator()
        for key in keys[:25] + [3, 99_999]:
            assert (run_functional(finder, memory.read, key).value
                    == find_reference(sl, key))


class TestKeyBounds:
    def test_max_key_accepted(self, memory):
        lst = LinkedList(memory)
        lst.append(MAX_KEY, 1)
        finder = lst.find_iterator()
        assert run_functional(finder, memory.read, MAX_KEY).value == 1
