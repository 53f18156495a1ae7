"""Global virtual address space, range-partitioned across memory nodes.

Section 5 of the paper: the address space is range partitioned so the
programmable switch needs exactly one routing rule per memory node -- the
rule maps a base-address range to an output port.  This module is that
map.  Address zero is reserved as the null pointer, so node ranges start
at a non-zero base.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

#: the null pointer; kernels compare against this to detect list ends
NULL_PTR = 0

#: default base of the first node's range (keeps 0 unmapped)
DEFAULT_BASE = 0x1000_0000


class AddressSpaceError(Exception):
    """Invalid address-space construction or lookup."""


class AddressSpace:
    """Range partitioning of virtual addresses over ``node_count`` nodes."""

    def __init__(self, node_count: int, node_capacity: int):
        if node_count < 1:
            raise AddressSpaceError("need at least one memory node")
        if node_capacity <= 0:
            raise AddressSpaceError("node capacity must be positive")
        self.node_count = node_count
        self.node_capacity = node_capacity
        self.base = DEFAULT_BASE

    def range_of(self, node_id: int) -> Tuple[int, int]:
        """Virtual [start, end) owned by ``node_id``."""
        self._check_node(node_id)
        start = self.base + node_id * self.node_capacity
        return start, start + self.node_capacity

    def node_of(self, vaddr: int) -> Optional[int]:
        """Node owning ``vaddr``, or None if unmapped (e.g. NULL)."""
        if vaddr < self.base:
            return None
        node_id = (vaddr - self.base) // self.node_capacity
        if node_id >= self.node_count:
            return None
        return node_id

    def switch_rules(self) -> List[Tuple[int, int, int]]:
        """(range_start, range_end, node_id) rules -- one per node (§6)."""
        return [(*self.range_of(n), n) for n in range(self.node_count)]

    def grow(self) -> int:
        """Extend the space by one node (online scale-out).

        Range partitioning makes growth trivial: the new node's range
        starts where the last one ended, so existing addresses (and the
        arithmetic *home* of every pointer) never change.  Returns the
        new node's id.
        """
        self.node_count += 1
        return self.node_count - 1

    def _check_node(self, node_id: int) -> None:
        if not 0 <= node_id < self.node_count:
            raise AddressSpaceError(
                f"node {node_id} outside [0, {self.node_count})")
