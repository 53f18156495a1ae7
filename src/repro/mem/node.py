"""Memory node assembly and the rack-wide memory facade.

:class:`MemoryNode` bundles one node's DRAM and translation table.
:class:`GlobalMemory` is what data-structure code programs
against: allocate, read, and write by *virtual* address anywhere in the
rack.  GlobalMemory performs *functional* (zero-simulated-time) accesses;
all timed paths (accelerator pipelines, RPC workers, paging) charge their
own latencies and then touch the same bytes through the owning node.

Ownership is resolved through the mutable
:class:`~repro.placement.rangemap.PlacementMap` (initially identical to
the arithmetic partition), so a segment live-migrated by
``repro.placement`` is transparently served by its new node.
"""

from __future__ import annotations

from typing import List, Optional

from repro.mem.addrspace import AddressSpace
from repro.mem.allocator import DisaggregatedAllocator, PlacementPolicy
from repro.mem.physical import PhysicalMemory
from repro.mem.translation import (
    PERM_READ,
    PERM_WRITE,
    RangeTranslationTable,
    TranslationFault,
)
from repro.placement.rangemap import PlacementMap


class MemoryNode:
    """One disaggregated memory node: DRAM + local translation state.

    It registers no metrics: the traffic it serves is counted by
    whatever serves it (the accelerator's ``<node>.acc.bytes_loaded``,
    a baseline server's counter) in the rack's registry, over the
    registry's measurement window.
    """

    def __init__(self, node_id: int, addrspace: AddressSpace,
                 tcam_capacity: int = 1024):
        self.node_id = node_id
        self.name = f"mem{node_id}"
        self.addrspace = addrspace
        self.memory = PhysicalMemory(addrspace.node_capacity)
        self.table = RangeTranslationTable(capacity=tcam_capacity)
        self.virt_start, self.virt_end = addrspace.range_of(node_id)

    def owns(self, vaddr: int) -> bool:
        """True if ``vaddr`` falls in this node's partition of the rack."""
        return self.virt_start <= vaddr < self.virt_end

    def read_virt(self, vaddr: int, size: int,
                  access: int = PERM_READ) -> bytes:
        """Translate + read; raises TranslationFault for foreign pointers."""
        phys = self.table.translate(vaddr, size, access)
        return self.memory.read(phys, size)

    def write_virt(self, vaddr: int, data: bytes) -> None:
        phys = self.table.translate(vaddr, len(data), PERM_WRITE)
        self.memory.write(phys, data)


class GlobalMemory:
    """The rack's memory: nodes + allocator + virtual-address access."""

    def __init__(self, node_count: int, node_capacity: int,
                 policy: PlacementPolicy = PlacementPolicy.UNIFORM,
                 tcam_capacity: int = 1024):
        self.addrspace = AddressSpace(node_count, node_capacity)
        self._tcam_capacity = tcam_capacity
        self.nodes: List[MemoryNode] = [
            MemoryNode(n, self.addrspace, tcam_capacity)
            for n in range(node_count)
        ]
        self.allocator = DisaggregatedAllocator(
            self.addrspace, [n.table for n in self.nodes], policy)
        #: the live ownership map (initially == the arithmetic partition);
        #: shared with the switch and mutated only by the migration engine
        self.placement = PlacementMap(self.addrspace)
        self.allocator.owner_map = self.placement
        #: set by the cluster when durability is enabled; functional
        #: (zero-time) writes are captured into the bootstrap store so
        #: recovery can rebuild data that predates the redo log
        self.durability = None

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def add_node(self) -> MemoryNode:
        """Grow the rack by one memory node (online scale-out).

        Extends the address space, builds the node, and registers it
        with the allocator and placement map.  The caller (the cluster)
        wires up the accelerator.
        """
        node_id = self.addrspace.grow(1)
        node = MemoryNode(node_id, self.addrspace, self._tcam_capacity)
        self.nodes.append(node)
        self.allocator.add_node(node.table)
        self.placement.add_node(node_id)
        return node

    def node_of(self, vaddr: int) -> Optional[MemoryNode]:
        node_id = self.placement.node_of(vaddr)
        if node_id is None:
            return None
        return self.nodes[node_id]

    def alloc(self, size: int, preferred_node: Optional[int] = None) -> int:
        return self.allocator.alloc(size, preferred_node)

    def arena(self, structure_id: int, chain_hint=0,
              preferred_node: Optional[int] = None):
        """A traversal arena handle (see ``DisaggregatedAllocator.arena``)."""
        return self.allocator.arena(structure_id, chain_hint,
                                    preferred_node=preferred_node)

    def new_structure_id(self) -> int:
        return self.allocator.new_structure_id()

    def free(self, vaddr: int) -> None:
        self.allocator.free(vaddr)

    def read(self, vaddr: int, size: int) -> bytes:
        node = self.node_of(vaddr)
        if node is None:
            raise TranslationFault(vaddr)
        return node.read_virt(vaddr, size)

    def write(self, vaddr: int, data: bytes) -> None:
        node = self.node_of(vaddr)
        if node is None:
            raise TranslationFault(vaddr)
        node.write_virt(vaddr, data)
        if self.durability is not None:
            self.durability.capture(vaddr, data)

    def read_u64(self, vaddr: int) -> int:
        return int.from_bytes(self.read(vaddr, 8), "little")

    def write_u64(self, vaddr: int, value: int) -> None:
        self.write(vaddr, (value & (2**64 - 1)).to_bytes(8, "little"))
