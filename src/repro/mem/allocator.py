"""Allocation over disaggregated memory nodes.

The paper does not innovate on allocation (section 2.2): it uses glibc
with *load-balanced* placement across nodes.  Here each allocation goes
to the node with the least bytes allocated (ties broken round-robin),
spreading a structure's nodes across the rack.  The supplementary
material's allocation-policy study (Supp Fig 2) compares that against an
application-directed *partitioned* placement that keeps whole subtrees
on one node; structure code spells it per allocation with
``preferred_node``.

Within a node the allocator is a bump allocator with a best-fit free
list (freed blocks are split and re-merged, so mixed-size churn reuses
space instead of exhausting the bump pointer), and it installs/extends
the node's TCAM range entries as it grows.

Virtual and physical offsets are tracked separately: an address keeps
its virtual *home* range forever, but live migration
(``repro.placement``) can move its backing bytes to another node.  The
physical-arena APIs the migration engine uses -- :meth:`adopt_physical`,
:meth:`release_physical`, :meth:`transfer_ownership`,
:meth:`snap_range` -- live here, next to the accounting they mutate.

**Traversal arenas** (:class:`TraversalArena`) are the
collective-allocator layer on top: a data structure asks for a named
arena per chain (``allocator.arena(structure_id, chain_hint)``) and
routes every node allocation through it.  The arena reserves contiguous
virtual *extents* and bump-allocates inside them, so objects that are
traversed together -- one bucket chain, one run of B+Tree leaves, one
adjacency run -- occupy contiguous virtual ranges that
``PlacementMap.move()`` can ship between memory nodes as a unit.  This
is the placement refactor the affinity rebalancer builds on: without
arenas, allocation order interleaves chains and a depth-d traversal
crosses node boundaries ~d times once a structure spans the rack.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro.mem.addrspace import AddressSpace
from repro.mem.translation import (
    PERM_READ,
    PERM_WRITE,
    RangeEntry,
    RangeTranslationTable,
)


class AllocationError(Exception):
    """Out of memory or malformed allocation request."""


@dataclass
class _NodeArena:
    """Per-node accounting: virtual bump, physical bump, free lists.

    ``free_blocks`` holds freed *virtual* blocks this node still backs
    (their TCAM entries stay installed, so reuse is instant);
    ``phys_free`` holds *physical* holes left behind when a segment
    migrates away, reusable by later allocations or adoptions.
    """

    virt_start: int
    virt_end: int
    virt_bump: int = 0
    phys_bump: int = 0
    live_bytes: int = 0
    #: (vaddr, size) freed blocks, sorted by vaddr
    free_blocks: List[Tuple[int, int]] = field(default_factory=list)
    free_bytes: int = 0
    #: (phys, size) holes in physical memory, sorted by phys
    phys_free: List[Tuple[int, int]] = field(default_factory=list)
    phys_free_bytes: int = 0
    #: False while the node is draining (or drained): no new placements
    allocatable: bool = True

    @property
    def capacity(self) -> int:
        return self.virt_end - self.virt_start

    def virt_remaining(self) -> int:
        return self.capacity - self.virt_bump

    def phys_available(self) -> int:
        return (self.capacity - self.phys_bump) + self.phys_free_bytes


@dataclass
class _ArenaExtent:
    """One contiguous virtual reservation backing part of an arena."""

    start: int
    end: int
    cursor: int
    home_node: int

    def remaining(self) -> int:
        return self.end - self.cursor


class TraversalArena:
    """A collective-allocator handle: co-locate one chain's objects.

    Obtained from :meth:`DisaggregatedAllocator.arena` and keyed by
    ``(structure_id, chain_hint, preferred_node)``; every ``alloc()``
    bump-allocates inside the arena's current extent, so successive
    nodes of the chain are virtually contiguous.  When an extent fills,
    the arena reserves a fresh one -- preferring the same memory node
    (affinity), falling back to the allocator's least-allocated node when
    that node is full or draining.  Objects larger than an extent
    degrade gracefully to the plain allocation path.

    Extents, not individual objects, are the migration unit: the
    rebalancer widens any in-arena candidate segment to its covering
    extent so a chain moves whole instead of being sheared at an
    arbitrary segment boundary.
    """

    def __init__(self, allocator: "DisaggregatedAllocator",
                 structure_id: int, chain_hint: Hashable,
                 preferred_node: Optional[int]):
        self.allocator = allocator
        self.preferred_node = preferred_node
        self.extents: List[_ArenaExtent] = []
        self.allocated_bytes = 0

    def alloc(self, size: int) -> int:
        """Allocate ``size`` bytes inside the arena's virtual extents."""
        return self.allocator._arena_alloc(self, size)

    @property
    def home_node(self) -> Optional[int]:
        """The node the arena's most recent extent was placed on."""
        if not self.extents:
            return self.preferred_node
        return self.extents[-1].home_node


class DisaggregatedAllocator:
    """Allocates virtual addresses across the rack's memory nodes."""

    #: virtual reservation per arena extent.  Small enough that a large
    #: structure still spreads across nodes (load balancing operates per
    #: extent), large enough to hold a useful run of chain nodes (16
    #: of the paper's 256 B hash nodes per extent).
    ARENA_EXTENT_BYTES = 4096
    #: every allocation size is rounded up to this power of two
    ALIGNMENT = 8

    def __init__(self, addrspace: AddressSpace,
                 tables: List[RangeTranslationTable], placement):
        if len(tables) != addrspace.node_count:
            raise AllocationError(
                "need one translation table per memory node")
        self.addrspace = addrspace
        #: the live ownership map: free() and arena accounting credit a
        #: block's *current* owner (its arithmetic home is wrong after a
        #: migration)
        self.placement = placement
        self._tables = tables
        self._arenas = [
            _NodeArena(*addrspace.range_of(n))
            for n in range(addrspace.node_count)
        ]
        self._rr_next = 0
        #: (structure_id, chain_hint, preferred_node) -> TraversalArena
        self._arena_handles: Dict[Tuple, TraversalArena] = {}
        #: extent starts / (start, end) spans, sorted, for extent_of()
        self._extent_starts: List[int] = []
        self._extent_spans: List[Tuple[int, int]] = []
        self._next_structure_id = 0
        self.extent_count = 0
        self.arena_fallback_allocs = 0
        self.live_allocations: dict = {}  # vaddr -> size
        # Reuse/fragmentation diagnostics (exported as gauges once
        # attach_metrics() is called).
        self.reuse_count = 0
        self.split_count = 0
        self.merge_count = 0
        self._registry = None

    # -- public API ---------------------------------------------------------
    def alloc(self, size: int,
              preferred_node: Optional[int] = None) -> int:
        """Allocate ``size`` bytes; returns the virtual address."""
        if size <= 0:
            raise AllocationError(f"invalid allocation size: {size}")
        size = self._align(size)
        if preferred_node is not None:
            if not 0 <= preferred_node < len(self._arenas):
                raise AllocationError(f"no such node: {preferred_node}")
            if not self._arenas[preferred_node].allocatable:
                preferred_node = None  # draining: load-balance
        node_id = (preferred_node if preferred_node is not None
                   else self._pick_node(size))
        vaddr = self._alloc_on(node_id, size)
        self.live_allocations[vaddr] = size
        return vaddr

    def free(self, vaddr: int) -> None:
        """Return an allocation to its owning node's free list."""
        if vaddr not in self.live_allocations:
            raise AllocationError(f"free of unallocated address {vaddr:#x}")
        size = self.live_allocations.pop(vaddr)
        node_id = self._owner_of(vaddr)
        arena = self._arenas[node_id]
        arena.live_bytes -= size
        self._insert_free_block(node_id, arena, vaddr, size)

    # -- traversal arenas ---------------------------------------------------
    def new_structure_id(self) -> int:
        """A rack-unique id naming one data structure's arena family."""
        sid = self._next_structure_id
        self._next_structure_id += 1
        return sid

    def arena(self, structure_id: int, chain_hint: Hashable = 0,
              preferred_node: Optional[int] = None) -> TraversalArena:
        """The arena for one chain of one structure (created on demand).

        ``chain_hint`` names the traversal unit within the structure --
        a hash bucket, a B+Tree level, a vertex community -- and may be
        any hashable.  ``preferred_node`` pins the arena's extents to
        one memory node (the partitioned-placement policies); None lets
        each extent go to the least-allocated node, so a big
        structure still spreads across the rack at extent granularity.
        """
        key = (structure_id, chain_hint, preferred_node)
        handle = self._arena_handles.get(key)
        if handle is None:
            handle = TraversalArena(
                self, structure_id, chain_hint, preferred_node)
            self._arena_handles[key] = handle
        return handle

    def arena_extent_of(self, vaddr: int) -> Optional[Tuple[int, int]]:
        """The (start, end) arena extent containing ``vaddr``, if any.

        The rebalancer uses this to widen a candidate segment to its
        covering extent, so chain arenas migrate whole.
        """
        index = bisect.bisect_right(self._extent_starts, vaddr) - 1
        if index < 0:
            return None
        start, end = self._extent_spans[index]
        if vaddr >= end:
            return None
        return start, end

    def _arena_alloc(self, handle: TraversalArena, size: int) -> int:
        if size <= 0:
            raise AllocationError(f"invalid allocation size: {size}")
        size = self._align(size)
        extent = handle.extents[-1] if handle.extents else None
        if extent is None or extent.remaining() < size:
            extent = self._reserve_extent(handle, size)
            if extent is None:
                # Rack too full (or object bigger than an extent) --
                # degrade to the plain path rather than fail.
                self.arena_fallback_allocs += 1
                return self.alloc(size,
                                  preferred_node=handle.preferred_node)
        vaddr = extent.cursor
        extent.cursor += size
        # A migration may have rehomed part of the extent since it was
        # reserved; credit the *current* owner.
        owner = self._owner_of(vaddr)
        self._arenas[owner].live_bytes += size
        self.live_allocations[vaddr] = size
        handle.allocated_bytes += size
        return vaddr

    def _reserve_extent(self, handle: TraversalArena,
                        min_bytes: int) -> Optional[_ArenaExtent]:
        """Reserve a fresh extent: virtual span + physical backing +
        one covering TCAM entry.  Returns None when nothing fits."""
        span = max(self._align(min_bytes), self.ARENA_EXTENT_BYTES)
        order: List[int] = []
        if handle.preferred_node is not None:
            # Explicit pin (placement callable / partition_nodes):
            # always honored first, even after a spill elsewhere.
            order.append(handle.preferred_node)
        home = handle.home_node
        if home is not None and home not in order:
            # Implicit affinity: keep extending the chain on the node of
            # its last extent -- but only while that node's fill stays
            # within 0.25 of the rack minimum, so one big structure
            # can't pile onto a single node and defeat load balance.
            fills = self.node_fill_fractions()
            if fills[home] <= min(fills) + 0.25:
                order.append(home)
        try:
            order.append(self._pick_node(span))
        except AllocationError:
            pass
        order.extend(range(len(self._arenas)))
        for node_id in order:
            if not 0 <= node_id < len(self._arenas):
                continue
            arena = self._arenas[node_id]
            if not arena.allocatable:
                continue
            if arena.virt_remaining() < span:
                continue
            try:
                phys = self._grab_phys(arena, span, node_id)
            except AllocationError:
                continue
            vaddr = arena.virt_start + arena.virt_bump
            arena.virt_bump += span
            self._tables[node_id].insert(RangeEntry(
                virt_start=vaddr,
                virt_end=vaddr + span,
                phys_start=phys,
                perms=PERM_READ | PERM_WRITE,
            ))
            extent = _ArenaExtent(start=vaddr, end=vaddr + span,
                                  cursor=vaddr, home_node=node_id)
            handle.extents.append(extent)
            index = bisect.bisect(self._extent_starts, vaddr)
            self._extent_starts.insert(index, vaddr)
            self._extent_spans.insert(index, (vaddr, vaddr + span))
            self.extent_count += 1
            return extent
        return None

    def allocated_bytes(self, node_id: int) -> int:
        """Bytes of live allocations currently backed by ``node_id``."""
        return self._arenas[node_id].live_bytes

    def live_bytes_in(self, virt_start: int, virt_end: int) -> int:
        """Live-allocation bytes overlapping [virt_start, virt_end)."""
        return sum(
            min(vaddr + size, virt_end) - max(vaddr, virt_start)
            for vaddr, size in self.live_allocations.items()
            if vaddr < virt_end and virt_start < vaddr + size)

    def node_fill_fractions(self) -> List[float]:
        """Per-node fraction of capacity holding live allocations.

        This is the rebalancer's primary signal, and the same values the
        ``mem<i>.fill_fraction`` gauges export (one data source).  A
        fully drained node (capacity 0) reads as fill 0.0, not a
        ZeroDivisionError.
        """
        return [a.live_bytes / a.capacity if a.capacity else 0.0
                for a in self._arenas]

    def phys_available(self, node_id: int) -> int:
        """Physical bytes ``node_id`` could still back (bump + holes)."""
        return self._arenas[node_id].phys_available()

    def set_allocatable(self, node_id: int, allocatable: bool) -> None:
        """Include/exclude a node from placement (drain support)."""
        self._arenas[node_id].allocatable = allocatable

    def is_allocatable(self, node_id: int) -> bool:
        return self._arenas[node_id].allocatable

    def attach_metrics(self, registry) -> None:
        """Export fill/fragmentation gauges (``mem<i>.fill_fraction``,
        ``mem<i>.allocated_bytes``, ``mem<i>.free_bytes``) plus rack-wide
        reuse counters, all reading the live arena accounting."""
        self._registry = registry
        registry.gauge("alloc.block_reuses", fn=lambda: self.reuse_count)
        registry.gauge("alloc.block_splits", fn=lambda: self.split_count)
        registry.gauge("alloc.block_merges", fn=lambda: self.merge_count)
        registry.gauge(
            "alloc.fragmentation_bytes",
            fn=lambda: sum(a.free_bytes for a in self._arenas))
        registry.gauge("alloc.arena_handles",
                       fn=lambda: len(self._arena_handles))
        registry.gauge("alloc.arena_extents",
                       fn=lambda: self.extent_count)
        registry.gauge("alloc.arena_fallback_allocs",
                       fn=lambda: self.arena_fallback_allocs)
        for node_id in range(len(self._arenas)):
            self._register_node_gauges(node_id)

    # -- migration / membership API -----------------------------------------
    def add_node(self, table: RangeTranslationTable) -> int:
        """Adopt a freshly grown node (after ``AddressSpace.grow``)."""
        node_id = len(self._arenas)
        if node_id >= self.addrspace.node_count:
            raise AllocationError("add_node before addrspace.grow()")
        self._tables.append(table)
        self._arenas.append(_NodeArena(*self.addrspace.range_of(node_id)))
        if self._registry is not None:
            self._register_node_gauges(node_id)
        return node_id

    def adopt_physical(self, node_id: int, size: int) -> int:
        """Reserve ``size`` physical bytes on ``node_id`` for a segment
        migrating in; returns the physical start offset."""
        if size <= 0:
            raise AllocationError(f"invalid adoption size: {size}")
        return self._grab_phys(self._arenas[node_id], size, node_id)

    def release_physical(self, node_id: int, phys: int, size: int) -> None:
        """Return a physical hole (a segment migrated away)."""
        arena = self._arenas[node_id]
        blocks = arena.phys_free
        index = bisect.bisect(blocks, (phys, size))
        blocks.insert(index, (phys, size))
        arena.phys_free_bytes += size
        # Merge physically adjacent holes (both directions).
        while (index + 1 < len(blocks)
               and blocks[index][0] + blocks[index][1]
               == blocks[index + 1][0]):
            p, s = blocks.pop(index)
            blocks[index] = (p, s + blocks[index][1])
        while (index > 0
               and blocks[index - 1][0] + blocks[index - 1][1]
               == blocks[index][0]):
            p, s = blocks.pop(index)
            index -= 1
            blocks[index] = (blocks[index][0], blocks[index][1] + s)

    def transfer_ownership(self, virt_start: int, virt_end: int,
                           src: int, dst: int) -> int:
        """Move [virt_start, virt_end) accounting from ``src`` to ``dst``.

        Live-byte totals and any free blocks inside the range follow the
        segment to its new owner (the caller has already moved the bytes
        and TCAM entries).  Returns the live bytes moved.  Atomic: the
        straddle check runs over every block before the first mutation,
        so a raise leaves both arenas untouched.
        """
        src_arena = self._arenas[src]
        dst_arena = self._arenas[dst]
        staying: List[Tuple[int, int]] = []
        moving: List[Tuple[int, int]] = []
        for vaddr, size in src_arena.free_blocks:
            if virt_start <= vaddr and vaddr + size <= virt_end:
                moving.append((vaddr, size))
            elif vaddr + size <= virt_start or virt_end <= vaddr:
                staying.append((vaddr, size))
            else:
                raise AllocationError(
                    f"free block [{vaddr:#x},{vaddr + size:#x}) straddles "
                    f"migration range [{virt_start:#x},{virt_end:#x}); "
                    "snap_range() the range first")
        moved_live = sum(
            size for vaddr, size in self.live_allocations.items()
            if virt_start <= vaddr < virt_end)
        src_arena.live_bytes -= moved_live
        dst_arena.live_bytes += moved_live
        src_arena.free_blocks = staying
        for vaddr, size in moving:
            src_arena.free_bytes -= size
            self._insert_free_block(dst, dst_arena, vaddr, size)
        return moved_live

    def snap_range(self, node_id: int, virt_start: int,
                   virt_end: int) -> Tuple[int, int]:
        """Widen a range to allocation-block boundaries.

        Migration must never split a live allocation (or a freed block
        still bucketed on one node) across two owners; any block the
        range cuts through pulls the boundary outward.  Blocks never
        overlap, so one pass over each suffices.
        """
        if virt_end <= virt_start:
            raise AllocationError("empty or inverted migration range")
        start, end = virt_start, virt_end
        arena = self._arenas[node_id]
        blocks = list(arena.free_blocks)
        blocks.extend(self.live_allocations.items())
        for vaddr, size in blocks:
            if vaddr < start < vaddr + size:
                start = vaddr
            if vaddr < end < vaddr + size:
                end = vaddr + size
        return start, end

    # -- internals ----------------------------------------------------------
    def _register_node_gauges(self, node_id: int) -> None:
        arena = self._arenas[node_id]
        registry = self._registry
        registry.gauge(f"mem{node_id}.fill_fraction",
                       fn=lambda: (arena.live_bytes / arena.capacity
                                   if arena.capacity else 0.0))
        registry.gauge(f"mem{node_id}.allocated_bytes",
                       fn=lambda: arena.live_bytes)
        registry.gauge(f"mem{node_id}.free_bytes",
                       fn=lambda: arena.free_bytes)

    def _owner_of(self, vaddr: int) -> int:
        node_id = self.placement.node_of(vaddr)
        if node_id is None:
            raise AllocationError(f"unowned virtual address {vaddr:#x}")
        return node_id

    def _align(self, size: int) -> int:
        mask = self.ALIGNMENT - 1
        return (size + mask) & ~mask

    def _can_alloc(self, arena: _NodeArena, size: int) -> bool:
        if any(bsize >= size for _v, bsize in arena.free_blocks):
            return True
        return (arena.virt_remaining() >= size
                and arena.phys_available() >= size)

    def _pick_node(self, size: int) -> int:
        arenas = self._arenas
        # Least-allocated node first, round-robin on ties.
        order = sorted(
            range(len(arenas)),
            key=lambda n: (arenas[n].live_bytes,
                           (n - self._rr_next) % len(arenas)),
        )
        self._rr_next = (self._rr_next + 1) % len(arenas)
        for node_id in order:
            arena = arenas[node_id]
            if arena.allocatable and self._can_alloc(arena, size):
                return node_id
        raise AllocationError("all nodes full")

    def _alloc_on(self, node_id: int, size: int) -> int:
        arena = self._arenas[node_id]
        vaddr = self._take_free_block(arena, size)
        if vaddr is not None:
            arena.live_bytes += size
            self.reuse_count += 1
            return vaddr
        if arena.virt_remaining() < size:
            raise AllocationError(
                f"node {node_id} out of memory ({size} bytes requested, "
                f"{arena.virt_remaining()} free)")
        phys = self._grab_phys(arena, size, node_id)
        vaddr = arena.virt_start + arena.virt_bump
        arena.virt_bump += size
        arena.live_bytes += size
        self._tables[node_id].insert(RangeEntry(
            virt_start=vaddr,
            virt_end=vaddr + size,
            phys_start=phys,
            perms=PERM_READ | PERM_WRITE,
        ))
        return vaddr

    def _take_free_block(self, arena: _NodeArena,
                         size: int) -> Optional[int]:
        """Best-fit over the free list, splitting larger blocks.

        The remainder of a split stays covered by the node's existing
        TCAM entry (entries map whole bump regions), so no translation
        change is needed -- this is what makes mixed-size churn reusable
        where the old exact-size buckets leaked space.
        """
        best = -1
        for index, (_vaddr, bsize) in enumerate(arena.free_blocks):
            if bsize >= size and (best < 0
                                  or bsize < arena.free_blocks[best][1]):
                best = index
                if bsize == size:
                    break
        if best < 0:
            return None
        vaddr, bsize = arena.free_blocks.pop(best)
        if bsize > size:
            arena.free_blocks.insert(best, (vaddr + size, bsize - size))
            self.split_count += 1
        arena.free_bytes -= size
        return vaddr

    def _insert_free_block(self, node_id: int, arena: _NodeArena,
                           vaddr: int, size: int) -> None:
        """Insert a freed block, merging with virtually adjacent blocks
        that share a covering TCAM entry (same-entry adjacency implies
        physical contiguity, so the merged block is one linear span)."""
        blocks = arena.free_blocks
        index = bisect.bisect(blocks, (vaddr, size))
        blocks.insert(index, (vaddr, size))
        arena.free_bytes += size
        table = self._tables[node_id]

        def mergeable(left: Tuple[int, int], right: Tuple[int, int]) -> bool:
            if left[0] + left[1] != right[0]:
                return False
            span = right[0] + right[1] - left[0]
            return table.lookup(left[0], span) is not None

        while (index + 1 < len(blocks)
               and mergeable(blocks[index], blocks[index + 1])):
            v, s = blocks.pop(index)
            blocks[index] = (v, s + blocks[index][1])
            self.merge_count += 1
        while index > 0 and mergeable(blocks[index - 1], blocks[index]):
            v, s = blocks.pop(index)
            index -= 1
            blocks[index] = (blocks[index][0], blocks[index][1] + s)
            self.merge_count += 1

    def _grab_phys(self, arena: _NodeArena, size: int,
                   node_id: int) -> int:
        best = -1
        for index, (_phys, bsize) in enumerate(arena.phys_free):
            if bsize >= size and (best < 0
                                  or bsize < arena.phys_free[best][1]):
                best = index
                if bsize == size:
                    break
        if best >= 0:
            phys, bsize = arena.phys_free.pop(best)
            if bsize > size:
                arena.phys_free.insert(best, (phys + size, bsize - size))
            arena.phys_free_bytes -= size
            return phys
        if arena.capacity - arena.phys_bump < size:
            raise AllocationError(
                f"node {node_id} out of physical memory ({size} bytes "
                f"requested, {arena.capacity - arena.phys_bump} free)")
        phys = arena.phys_bump
        arena.phys_bump += size
        return phys
