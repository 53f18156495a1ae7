"""Live segment migration between memory nodes: copy, then fence.

Moving a virtual-address segment while traversals are in flight uses the
primitives earlier PRs built, composed into two phases:

1. **Copy** -- the mapped bytes stream to the destination at a bounded
   migration bandwidth, chunk by chunk, *without* blocking traversals
   (the source keeps serving; writes during the copy are captured by the
   fence's final pass).
2. **Fence** -- at one simulated instant: the bytes are (re)copied into
   physical memory adopted on the destination, the source TCAM unmaps
   the range (one version bump -- every per-core TranslationCache
   invalidates, and in-flight iterations revalidate their held entry
   before using it), the destination TCAM maps it, the allocator
   transfers ownership accounting, and the shared
   :class:`~repro.placement.rangemap.PlacementMap` retargets the range
   (its version bump is the switch-rule update).

Nothing is left behind on the old owner.  A straggler frame that raced
the fence -- parked in its admission queue, or in flight when the rule
changed -- misses there, and the accelerator answers ``RUNNING`` because
the live map names another owner: one more inter-node hop, which the
switch routes by the same map.  That holds for as long as a frame can
race, with no window.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.mem.allocator import AllocationError
from repro.mem.translation import RangeEntry


class MigrationError(Exception):
    """Invalid or unsatisfiable migration request."""


def mapped_pieces(entries, virt_start: int,
                  virt_end: int) -> List[Tuple[int, int]]:
    """TCAM entry coverage clipped to [virt_start, virt_end)."""
    pieces = []
    for entry in entries:
        if entry.virt_end <= virt_start or virt_end <= entry.virt_start:
            continue
        pieces.append((max(entry.virt_start, virt_start),
                       min(entry.virt_end, virt_end)))
    return pieces


def switch_ownership(memory, src: int, dst: int, virt_start: int,
                     virt_end: int, source_alive: bool = True
                     ) -> Tuple[int, int, List[RangeEntry]]:
    """Atomic switch-over of [virt_start, virt_end) from ``src`` to
    ``dst``: bytes, TCAMs, allocator, placement map.

    The one ownership change in the system -- a live migration's fence
    and a crash recovery's re-homing are both this.  ``source_alive``
    says where the bytes come from: a live source's DRAM is copied and
    its physical spans released; a crashed one has neither, so the
    adopted spans are zero-filled (the allocator may hand back a used
    hole) for the caller to replay logged content onto.

    Returns ``(mapped_bytes, live_bytes, inserted_entries)``.
    Failure-atomic: the caller lets no simulated time pass, all
    validation happens before the first destructive step, and the one
    resource acquired early (the destination's physical reservation) is
    released on any later failure -- a switch-over that raises leaves
    the cluster exactly as it was.
    """
    allocator = memory.allocator
    src_node = memory.nodes[src]
    dst_node = memory.nodes[dst]
    pieces = mapped_pieces(src_node.table.entries, virt_start, virt_end)
    total = sum(end - start for start, end in pieces)
    if total and allocator.phys_available(dst) < total:
        raise MigrationError(
            f"node {dst} lacks {total} physical bytes for "
            f"[{virt_start:#x},{virt_end:#x})")
    if len(dst_node.table) + len(pieces) > dst_node.table.capacity:
        raise MigrationError(
            f"node {dst} TCAM cannot hold {len(pieces)} more entries")
    if total:
        dst_phys = allocator.adopt_physical(dst, total)
    try:
        removed = src_node.table.remove_range(virt_start, virt_end)
    except ValueError as exc:
        # Splitting partially covered source entries would overflow
        # the source TCAM; remove_range mutated nothing, so only the
        # reservation needs unwinding.
        if total:
            allocator.release_physical(dst, dst_phys, total)
        raise MigrationError(str(exc)) from exc
    inserted: List[RangeEntry] = []
    offset = 0
    for piece in removed:
        size = piece.virt_end - piece.virt_start
        if source_alive:
            data = src_node.memory.read(piece.phys_start, size)
            allocator.release_physical(src, piece.phys_start, size)
        else:
            data = bytes(size)
        dst_node.memory.write(dst_phys + offset, data)
        entry = RangeEntry(virt_start=piece.virt_start,
                           virt_end=piece.virt_end,
                           phys_start=dst_phys + offset,
                           perms=piece.perms)
        dst_node.table.insert(entry)
        inserted.append(entry)
        offset += size
    live = allocator.transfer_ownership(virt_start, virt_end, src, dst)
    memory.placement.move(virt_start, virt_end, dst)
    return total, live, inserted


class MigrationEngine:
    """Copies segments between nodes under live traffic."""

    def __init__(self, env, memory, params, registry):
        self.env = env
        self.memory = memory
        self.rangemap = memory.placement
        self.params = params
        self.in_flight = 0
        self.completed = 0
        self.bytes_migrated = 0
        #: live-allocation bytes moved by the most recent migration (the
        #: rebalancer's fill arithmetic works in live bytes, not mapped
        #: bytes, which also count freed-but-still-mapped blocks)
        self.last_live_bytes = 0
        self._events = registry.events
        self._m_migrations = registry.counter("placement.migrations")
        self._m_bytes = registry.counter("placement.bytes_migrated")
        self._m_failed = registry.counter("placement.migrations_failed")
        self._hist_ns = registry.histogram("placement.migration_ns")
        registry.gauge("placement.migrations_in_flight",
                       fn=lambda: self.in_flight)

    # -- public API ---------------------------------------------------------
    def migrate(self, virt_start: int, virt_end: int, dst: int):
        """Simulation process: move [virt_start, virt_end) to node ``dst``.

        Returns (via StopIteration value) the number of mapped bytes
        moved.  The range is snapped outward to allocation boundaries so
        no allocation ever straddles two owners, and clamped inward to
        the mapped span, so a source that keeps allocating never
        bump-allocates virtual addresses it no longer owns.
        """
        self.last_live_bytes = 0
        allocator = self.memory.allocator
        src = self.rangemap.node_of(virt_start)
        if src is None:
            raise MigrationError(
                f"unowned migration range start {virt_start:#x}")
        if not 0 <= dst < self.memory.node_count:
            raise MigrationError(f"no such destination node: {dst}")
        virt_start, virt_end = allocator.snap_range(src, virt_start,
                                                    virt_end)
        for start, end, owner in self.rangemap.rules():
            if start < virt_end and virt_start < end and owner != src:
                raise MigrationError(
                    f"[{virt_start:#x},{virt_end:#x}) spans owners "
                    f"{src} and {owner}; migrate per-owner sub-ranges")
        if src == dst:
            return 0

        src_node = self.memory.nodes[src]
        dst_node = self.memory.nodes[dst]
        pieces = mapped_pieces(src_node.table.entries, virt_start,
                               virt_end)
        if not pieces:
            return 0
        virt_start = pieces[0][0]
        virt_end = max(end for _start, end in pieces)
        total = sum(end - start for start, end in pieces)
        if total and allocator.phys_available(dst) < total:
            self._m_failed.inc()
            raise MigrationError(
                f"node {dst} lacks {total} physical bytes for "
                f"[{virt_start:#x},{virt_end:#x})")
        if len(dst_node.table) + len(pieces) > dst_node.table.capacity:
            self._m_failed.inc()
            raise MigrationError(
                f"node {dst} TCAM cannot hold {len(pieces)} more entries")

        started = self.env.now
        self.in_flight += 1
        if self._events is not None:
            self._events.record("placement", "migrate_start", (src, dst),
                                start=hex(virt_start), end=hex(virt_end),
                                bytes=total)
        try:
            # Phase 1: bandwidth-limited background copy.  Traversals
            # keep hitting the source; only the *time* is charged here --
            # the authoritative byte transfer happens at the fence, which
            # thereby also captures every write made during this phase.
            remaining = total
            while remaining > 0:
                step = min(self.params.copy_chunk_bytes, remaining)
                yield self.env.timeout(
                    step / self.params.migration_bandwidth_bytes_per_ns)
                remaining -= step

            # Phase 2: the fence.  No simulated time passes from here to
            # the end of the block, so traversal processes cannot observe
            # a half-moved segment.  The pre-copy checks above are stale
            # by now (allocations, frees, and other migrations ran during
            # the copy), so the fence re-validates everything itself and
            # raises -- with no state mutated -- when a check no longer
            # holds.  Every failure surfaces as MigrationError so callers
            # (the rebalancer loop) need to handle exactly one type.
            try:
                total, live = self._fence(src, dst, virt_start, virt_end)
            except MigrationError:
                self._m_failed.inc()
                raise
            except (AllocationError, ValueError) as exc:
                self._m_failed.inc()
                raise MigrationError(str(exc)) from exc
            self.last_live_bytes = live
        finally:
            self.in_flight -= 1

        self.completed += 1
        self.bytes_migrated += total
        self._m_migrations.inc()
        self._m_bytes.inc(total)
        self._hist_ns.record(self.env.now - started)
        if self._events is not None:
            self._events.record("placement", "migrate_done", (src, dst),
                                duration_ns=self.env.now - started)
        return total

    # -- internals ----------------------------------------------------------
    def _fence(self, src: int, dst: int, virt_start: int,
               virt_end: int) -> Tuple[int, int]:
        """The switch-over; returns ``(mapped_bytes, live_bytes)``.

        No simulated time passes inside the fence, so every check
        :func:`switch_ownership` re-runs holds for the whole of it.  On
        a durable rack the range's replicas now follow ``dst``, so
        ``dst``'s replica targets image its bytes before the fence ends.
        """
        # Frees during the copy can merge blocks across the snapped
        # boundary; re-snap so nothing straddles the ownership edge
        # (this is what lets transfer_ownership never fail).
        virt_start, virt_end = self.memory.allocator.snap_range(
            src, virt_start, virt_end)
        total, live, _entries = switch_ownership(
            self.memory, src, dst, virt_start, virt_end)
        if self.memory.durability is not None:
            self.memory.durability.on_range_adopted(dst)
        return total, live
