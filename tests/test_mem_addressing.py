"""Tests for the address space, translation, allocation, and nodes."""

import pytest

from repro.mem import (
    AddressSpace,
    AllocationError,
    DisaggregatedAllocator,
    GlobalMemory,
    PERM_READ,
    PERM_WRITE,
    ProtectionFault,
    RangeTranslationTable,
    TranslationFault,
)
from repro.mem.addrspace import AddressSpaceError, NULL_PTR
from repro.mem.translation import RangeEntry
from repro.placement import PlacementMap

from tests.helpers import home_of


class TestAddressSpace:
    def test_ranges_are_disjoint_and_ordered(self):
        space = AddressSpace(node_count=4, node_capacity=1 << 20)
        previous_end = 0
        for node in range(4):
            start, end = space.range_of(node)
            assert start >= previous_end
            assert end - start == 1 << 20
            previous_end = end

    def test_node_of_resolves_owner(self):
        space = AddressSpace(node_count=2, node_capacity=100)
        start0, end0 = space.range_of(0)
        start1, _ = space.range_of(1)
        assert home_of(space, start0) == 0
        assert home_of(space, end0 - 1) == 0
        assert home_of(space, start1) == 1

    def test_null_pointer_is_unmapped(self):
        space = AddressSpace(node_count=2, node_capacity=100)
        assert home_of(space, NULL_PTR) is None

    def test_beyond_last_node_is_unmapped(self):
        space = AddressSpace(node_count=2, node_capacity=100)
        _, end = space.range_of(1)
        assert home_of(space, end) is None

    def test_switch_rules_one_per_node(self):
        space = AddressSpace(node_count=3, node_capacity=64)
        rules = space.switch_rules()
        assert len(rules) == 3
        assert rules[0][2] == 0 and rules[2][2] == 2

    def test_invalid_construction(self):
        with pytest.raises(AddressSpaceError):
            AddressSpace(node_count=0, node_capacity=10)
        with pytest.raises(AddressSpaceError):
            AddressSpace(node_count=1, node_capacity=0)


class TestRangeTranslation:
    def test_translate_within_range(self):
        table = RangeTranslationTable()
        table.insert(RangeEntry(0x1000, 0x2000, 0x0))
        assert table.translate(0x1800, 8) == 0x800

    def test_miss_raises_translation_fault(self):
        table = RangeTranslationTable()
        table.insert(RangeEntry(0x1000, 0x2000, 0x0))
        with pytest.raises(TranslationFault):
            table.translate(0x3000, 8)

    def test_access_straddling_range_end_is_a_miss(self):
        table = RangeTranslationTable()
        table.insert(RangeEntry(0x1000, 0x2000, 0x0))
        with pytest.raises(TranslationFault):
            table.translate(0x1FFC, 8)

    def test_protection_fault_on_write_to_readonly(self):
        table = RangeTranslationTable()
        table.insert(RangeEntry(0x1000, 0x2000, 0x0, perms=PERM_READ))
        assert table.translate(0x1000, 8, PERM_READ) == 0
        with pytest.raises(ProtectionFault):
            table.translate(0x1000, 8, PERM_WRITE)

    def test_contiguous_entries_coalesce(self):
        table = RangeTranslationTable()
        table.insert(RangeEntry(0x1000, 0x1100, 0x0))
        table.insert(RangeEntry(0x1100, 0x1200, 0x100))
        assert len(table) == 1
        assert table.translate(0x11F0, 8) == 0x1F0

    def test_non_contiguous_entries_do_not_coalesce(self):
        table = RangeTranslationTable()
        table.insert(RangeEntry(0x1000, 0x1100, 0x0))
        table.insert(RangeEntry(0x2000, 0x2100, 0x500))
        assert len(table) == 2

    def test_overlap_rejected(self):
        table = RangeTranslationTable()
        table.insert(RangeEntry(0x1000, 0x2000, 0x0))
        with pytest.raises(ValueError):
            table.insert(RangeEntry(0x1800, 0x2800, 0x0))

    def test_tcam_capacity_enforced(self):
        table = RangeTranslationTable(capacity=1)
        table.insert(RangeEntry(0x1000, 0x1100, 0x0))
        with pytest.raises(ValueError):
            table.insert(RangeEntry(0x9000, 0x9100, 0x200))

    def test_miss_counter(self):
        table = RangeTranslationTable()
        table.insert(RangeEntry(0x1000, 0x2000, 0x0))
        assert table.lookup(0x1500) is table.entries[0]
        assert table.lookup(0x5000) is None

    def test_set_permissions(self):
        table = RangeTranslationTable()
        table.insert(RangeEntry(0x1000, 0x2000, 0x0))
        table.entries[0].perms = PERM_READ
        table.version += 1
        with pytest.raises(ProtectionFault):
            table.translate(0x1000, 8, PERM_WRITE)


class TestAllocator:
    def _make(self, nodes=2, capacity=4096):
        space = AddressSpace(nodes, capacity)
        tables = [RangeTranslationTable() for _ in range(nodes)]
        return space, tables, DisaggregatedAllocator(space, tables,
                                                     PlacementMap(space))

    def test_uniform_spreads_across_nodes(self):
        space, _tables, alloc = self._make(nodes=4)
        owners = {home_of(space, alloc.alloc(64)) for _ in range(8)}
        assert owners == {0, 1, 2, 3}

    def test_preferred_node_is_honored(self):
        space, _tables, alloc = self._make(nodes=3)
        vaddr = alloc.alloc(64, preferred_node=2)
        assert home_of(space, vaddr) == 2

    def test_translation_entries_installed(self):
        _space, tables, alloc = self._make(nodes=1)
        alloc.alloc(64)
        alloc.alloc(64)
        # Bump allocations are contiguous, so they coalesce into 1 entry.
        assert len(tables[0]) == 1

    def test_free_and_reuse(self):
        space, _tables, alloc = self._make(nodes=1)
        a = alloc.alloc(128)
        alloc.free(a)
        b = alloc.alloc(128)
        assert a == b  # reused from the free list

    def test_double_free_rejected(self):
        _s, _t, alloc = self._make(nodes=1)
        a = alloc.alloc(64)
        alloc.free(a)
        with pytest.raises(AllocationError):
            alloc.free(a)

    def test_out_of_memory(self):
        _s, _t, alloc = self._make(nodes=1, capacity=256)
        alloc.alloc(256)
        with pytest.raises(AllocationError):
            alloc.alloc(8)

    def test_alignment(self):
        _s, _t, alloc = self._make(nodes=1)
        a = alloc.alloc(5)
        b = alloc.alloc(5)
        assert b - a == 8

    def test_invalid_size_rejected(self):
        _s, _t, alloc = self._make()
        with pytest.raises(AllocationError):
            alloc.alloc(0)


class TestGlobalMemory:
    def test_read_write_across_nodes(self):
        gm = GlobalMemory(node_count=2, node_capacity=4096)
        a = gm.alloc(64, preferred_node=0)
        b = gm.alloc(64, preferred_node=1)
        gm.write(a, b"node-zero")
        gm.write(b, b"node-one!")
        assert gm.read(a, 9) == b"node-zero"
        assert gm.read(b, 9) == b"node-one!"

    def test_u64_round_trip(self):
        gm = GlobalMemory(node_count=1, node_capacity=4096)
        a = gm.alloc(8)
        gm.write_u64(a, 123456789)
        assert gm.read_u64(a) == 123456789

    def test_unmapped_read_raises(self):
        gm = GlobalMemory(node_count=1, node_capacity=4096)
        with pytest.raises(TranslationFault):
            gm.read(0, 8)

    def test_node_owns_only_its_range(self):
        gm = GlobalMemory(node_count=2, node_capacity=4096)
        a = gm.alloc(8, preferred_node=0)
        b = gm.alloc(8, preferred_node=1)
        assert home_of(gm.addrspace, a) == 0 != home_of(gm.addrspace, b)
        # Node 1 has no translation for node 0's pointer: the fault that
        # triggers pulse's switch re-routing (section 5).
        with pytest.raises(TranslationFault):
            gm.nodes[1].read_virt(a, 8)
