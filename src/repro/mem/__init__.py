"""Disaggregated memory substrate.

This package models the memory side of the rack: byte-addressable DRAM at
each memory node (:mod:`~repro.mem.physical`), a global virtual address
space range-partitioned across nodes (:mod:`~repro.mem.addrspace`),
range-based translation with protection as held in the accelerator's TCAM
(:mod:`~repro.mem.translation`), allocation
(:mod:`~repro.mem.allocator`), and the memory node assembly
(:mod:`~repro.mem.node`).  Linked data structures are laid out into this
substrate with :mod:`~repro.mem.layout` and traversed by real pointer
values -- the same addresses the pulse ISA interpreter chases.
"""

from repro.mem.addrspace import AddressSpace
from repro.mem.allocator import AllocationError, DisaggregatedAllocator
from repro.mem.layout import Field, StructLayout
from repro.mem.node import GlobalMemory, MemoryNode
from repro.mem.physical import MemoryFault, PhysicalMemory
from repro.mem.translation import (
    PERM_READ,
    PERM_WRITE,
    ProtectionFault,
    RangeTranslationTable,
    TranslationFault,
)

__all__ = [
    "AddressSpace",
    "AllocationError",
    "DisaggregatedAllocator",
    "Field",
    "GlobalMemory",
    "MemoryFault",
    "MemoryNode",
    "PERM_READ",
    "PERM_WRITE",
    "PhysicalMemory",
    "ProtectionFault",
    "RangeTranslationTable",
    "StructLayout",
    "TranslationFault",
]
