"""Catalog tests: every shipped kernel assembles, disassembles,
round-trips, passes validation, and is offloadable as the paper claims
(supplementary Table 3: 13 data structures across 4 libraries map onto
init/next/end -- our catalog covers each *category* the table lists)."""

import pytest

from repro.isa import analyze, assemble, disassemble
from repro.mem import GlobalMemory
from repro.params import AcceleratorParams
from repro.structures import (
    AvlTree,
    BPlusTree,
    BinarySearchTree,
    HashTable,
    LinkedList,
    SkipList,
)


def catalog(memory):
    """(name, program) for every kernel the structure library ships."""
    lst = LinkedList(memory, value_bytes=240)
    table = HashTable(memory, buckets=2)
    tree = BPlusTree(memory, fanout=12)
    tsv_tree = BPlusTree(memory, fanout=9)
    bst = BinarySearchTree(memory)
    avl = AvlTree(memory)
    skip = SkipList(memory)
    kernels = [
        ("list_find", lst.find_iterator().program),
        ("list_walk", lst.walk_iterator().program),
        ("list_sum", lst.sum_iterator().program),
        ("hash_find", table.find_iterator().program),
        ("hash_update", table.update_iterator().program),
        ("btree_lookup", tree.lookup_iterator().program),
        ("btree_scan_collect",
         tree.scan_collect_iterator(limit=16).program),
        ("btree_scan_count",
         tree.scan_count_iterator(limit=16).program),
        ("btree_agg_sum", tsv_tree.aggregate_iterator("sum").program),
        ("btree_agg_avg", tsv_tree.aggregate_iterator("avg").program),
        ("btree_agg_min", tsv_tree.aggregate_iterator("min").program),
        ("btree_agg_max", tsv_tree.aggregate_iterator("max").program),
        ("bst_lower_bound", bst.lower_bound_iterator().program),
        ("avl_find", avl.find_iterator().program),
        ("skip_find", skip.find_iterator().program),
    ]
    return kernels


@pytest.fixture(scope="module")
def kernels():
    memory = GlobalMemory(node_count=1, node_capacity=1 << 20)
    return catalog(memory)


def test_catalog_covers_the_papers_categories(kernels):
    names = [name for name, _ in kernels]
    # Supp Table 3 categories: list (STL/Boost), hash (Boost unordered),
    # Google BTree, STL map/set trees, Boost AVL/splay/scapegoat trees.
    assert any("list" in n for n in names)
    assert any("hash" in n for n in names)
    assert any("btree" in n for n in names)
    assert any("bst" in n for n in names)
    assert any("avl" in n for n in names)
    assert len(kernels) >= 15


def test_every_kernel_disassembles_and_reassembles(kernels):
    for name, program in kernels:
        text = disassemble(program)
        again = assemble(text)
        assert len(again) == len(program), name
        assert again.load_window == program.load_window, name
        assert again.instructions == program.instructions, name


def test_every_kernel_is_offloadable(kernels):
    params = AcceleratorParams()
    for name, program in kernels:
        analysis = analyze(program, params)
        assert analysis.offloadable, name
        # The whole point of the ISA restrictions: eta stays below 1.
        assert analysis.eta <= params.eta_max, name


def test_every_kernel_fits_the_wire_budget(kernels):
    for name, program in kernels:
        # Even the unrolled scan kernels stay under 4 KB of code.
        assert program.wire_bytes() <= 4096, (name, program.wire_bytes())


def test_recurring_paths_exist_for_traversal_kernels(kernels):
    params = AcceleratorParams()
    for name, program in kernels:
        analysis = analyze(program, params)
        # Every kernel here loops (list_walk included): there must be a
        # NEXT_ITER path, i.e. a nonzero recurring cost.
        assert analysis.recurring_instructions > 0, name


def test_eta_ordering_matches_table2(kernels):
    """Hash < B+Tree lookup < scan/aggregate kernels, as in Table 2."""
    params = AcceleratorParams()
    eta = {name: analyze(p, params).eta for name, p in kernels}
    assert eta["hash_find"] < eta["btree_lookup"]
    assert eta["btree_lookup"] < eta["btree_scan_count"]
    assert eta["hash_find"] < 0.1
    assert eta["btree_scan_count"] > 0.6
