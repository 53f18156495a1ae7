"""Tests for the AVL tree (supplementary Listings 9/10)."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import PulseCluster
from repro.isa import analyze
from repro.mem import GlobalMemory
from repro.params import AcceleratorParams
from repro.structures import AvlTree
from repro.structures.base import StructureError
from tests.helpers import (avl_height, check_avl_invariants, find_reference,
                           run_functional)


@pytest.fixture
def memory():
    return GlobalMemory(node_count=1, node_capacity=8 << 20)


class TestAvlBalancing:
    def test_sequential_inserts_stay_balanced(self, memory):
        tree = AvlTree(memory)
        for key in range(512):
            tree.insert(key, key)
        check_avl_invariants(tree)
        # A plain BST would be depth 512; AVL stays ~log2(512)+slack.
        assert avl_height(tree) <= 11

    def test_reverse_inserts_stay_balanced(self, memory):
        tree = AvlTree(memory)
        for key in reversed(range(256)):
            tree.insert(key, key)
        check_avl_invariants(tree)
        assert avl_height(tree) <= 10

    def test_random_inserts_stay_balanced(self, memory):
        rng = random.Random(3)
        tree = AvlTree(memory)
        keys = rng.sample(range(100_000), 400)
        for key in keys:
            tree.insert(key, key * 2)
        check_avl_invariants(tree)
        for key in keys[:30]:
            assert find_reference(tree, key) == key * 2

    def test_overwrite_does_not_grow(self, memory):
        tree = AvlTree(memory)
        tree.insert(1, 10)
        tree.insert(1, 20)
        assert tree.size == 1
        assert find_reference(tree, 1) == 20

    def test_all_four_rotation_cases(self, memory):
        # LL, RR, LR, RL insertion orders, each a 3-node seed.
        for order in [(3, 2, 1), (1, 2, 3), (3, 1, 2), (1, 3, 2)]:
            tree = AvlTree(memory)
            for key in order:
                tree.insert(key, key)
            check_avl_invariants(tree)
            assert avl_height(tree) == 2


class TestAvlKernel:
    def test_find_matches_reference(self, memory):
        rng = random.Random(9)
        tree = AvlTree(memory)
        keys = rng.sample(range(50_000), 300)
        for key in keys:
            tree.insert(key, key ^ 0x55)
        finder = tree.find_iterator()
        for key in keys[:25] + [50_001]:
            assert (run_functional(finder, memory.read, key).value
                    == find_reference(tree, key))

    def test_iterations_logarithmic(self, memory):
        tree = AvlTree(memory)
        for key in range(1024):
            tree.insert(key, key)
        finder = tree.find_iterator()
        worst = max(
            run_functional(finder, memory.read, key).iterations
            for key in (0, 511, 1023, 700))
        assert worst <= avl_height(tree)

    def test_load_window_excludes_metadata(self):
        from repro.structures.avltree import AvlFind
        program = AvlFind(lambda: 0x1000).program
        # key@0..left@16..right@32: window ends before height/pad.
        offset, size = program.load_window
        assert offset == 0
        assert size == 32

    def test_offloadable(self):
        from repro.structures.avltree import AvlFind
        analysis = analyze(AvlFind(lambda: 0x1000).program,
                           AcceleratorParams())
        assert analysis.offloadable
        assert analysis.eta < 0.2

    def test_empty_tree_rejected(self, memory):
        tree = AvlTree(memory)
        with pytest.raises(StructureError):
            tree.find_iterator().init(1)

    def test_through_the_cluster(self):
        cluster = PulseCluster(node_count=2)
        tree = AvlTree(cluster.memory)
        for key in range(200):
            tree.insert(key, key * 3)
        result = cluster.run_traversal(tree.find_iterator(), 123)
        assert result.value == 369
        assert result.offloaded


class TestAvlProperties:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(keys=st.lists(st.integers(0, 1 << 40), min_size=1,
                         max_size=200, unique=True))
    def test_invariants_hold_for_any_insert_order(self, keys):
        memory = GlobalMemory(node_count=1, node_capacity=8 << 20)
        tree = AvlTree(memory)
        for key in keys:
            tree.insert(key, key % 1009)
        check_avl_invariants(tree)
        assert tree.size == len(keys)
        for key in keys[:10]:
            assert find_reference(tree, key) == key % 1009
