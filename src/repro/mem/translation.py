"""Range-based address translation and protection (the accelerator TCAM).

Section 4.2.1: pulse uses range-based translation entries held in TCAM
instead of fixed-size page tables, reducing on-chip state.  Each memory
node's accelerator holds entries only for its own ranges (hierarchical
translation, section 5); a lookup miss means the pointer lives on another
node (or is invalid), and the accelerator bounces the request back to the
switch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.obs.metrics import Counter

PERM_READ = 0x1
PERM_WRITE = 0x2


class TranslationFault(Exception):
    """Virtual address not covered by any local range entry."""

    def __init__(self, vaddr: int):
        super().__init__(f"no translation for {vaddr:#x}")
        self.vaddr = vaddr


class ProtectionFault(Exception):
    """Access permissions do not allow the requested operation."""

    def __init__(self, vaddr: int, requested: int, granted: int):
        super().__init__(
            f"protection fault at {vaddr:#x}: requested "
            f"{requested:#x}, granted {granted:#x}")
        self.vaddr = vaddr
        self.requested = requested
        self.granted = granted


@dataclass
class RangeEntry:
    """One TCAM entry: [virt_start, virt_end) -> phys_start, perms."""

    virt_start: int
    virt_end: int
    phys_start: int
    perms: int = PERM_READ | PERM_WRITE

    def covers(self, vaddr: int, size: int) -> bool:
        return self.virt_start <= vaddr and vaddr + size <= self.virt_end

    def translate(self, vaddr: int, access: int = 0) -> int:
        """Physical address of ``vaddr``; raises ProtectionFault when the
        entry does not grant every ``access`` bit."""
        if (self.perms & access) != access:
            raise ProtectionFault(vaddr, access, self.perms)
        return self.phys_start + (vaddr - self.virt_start)


class RangeTranslationTable:
    """Sorted range entries with a capacity cap modeling TCAM size."""

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError("TCAM capacity must be >= 1")
        self.capacity = capacity
        self._entries: List[RangeEntry] = []
        self.lookups = 0
        self.misses = 0
        #: bumped on every remap (insert/permission change) so cached
        #: views of this table (:class:`TranslationCache`) can detect
        #: staleness and invalidate themselves
        self.version = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> List[RangeEntry]:
        return list(self._entries)

    def insert(self, entry: RangeEntry) -> None:
        """Insert an entry, coalescing with an adjacent compatible one.

        Coalescing keeps the table within TCAM capacity when an allocator
        grows a region bump-style (the common case).
        """
        if entry.virt_end <= entry.virt_start:
            raise ValueError("empty or inverted range")
        for existing in self._entries:
            if (entry.virt_start < existing.virt_end
                    and existing.virt_start < entry.virt_end):
                raise ValueError(
                    f"overlapping translation ranges: "
                    f"[{entry.virt_start:#x},{entry.virt_end:#x}) vs "
                    f"[{existing.virt_start:#x},{existing.virt_end:#x})")
        # Try to merge with a neighbor that is contiguous in both spaces.
        for existing in self._entries:
            contiguous = (
                existing.virt_end == entry.virt_start
                and existing.phys_start + (existing.virt_end
                                           - existing.virt_start)
                == entry.phys_start
                and existing.perms == entry.perms
            )
            if contiguous:
                existing.virt_end = entry.virt_end
                self.version += 1
                return
            contiguous_before = (
                entry.virt_end == existing.virt_start
                and entry.phys_start + (entry.virt_end - entry.virt_start)
                == existing.phys_start
                and existing.perms == entry.perms
            )
            if contiguous_before:
                existing.virt_start = entry.virt_start
                existing.phys_start = entry.phys_start
                self.version += 1
                return
        if len(self._entries) >= self.capacity:
            raise ValueError(
                f"TCAM full: {len(self._entries)} entries, capacity "
                f"{self.capacity}")
        self._entries.append(entry)
        self._entries.sort(key=lambda e: e.virt_start)
        self.version += 1

    def covering(self, vaddr: int, size: int = 1) -> Optional[RangeEntry]:
        """Like :meth:`lookup` but without touching the lookup counters
        (for allocator/migration bookkeeping, not modeled accesses)."""
        for entry in self._entries:
            if entry.covers(vaddr, size):
                return entry
        return None

    def lookup(self, vaddr: int, size: int = 1) -> Optional[RangeEntry]:
        """Entry covering [vaddr, vaddr+size), or None (a miss)."""
        self.lookups += 1
        for entry in self._entries:
            if entry.covers(vaddr, size):
                return entry
        self.misses += 1
        return None

    def translate(self, vaddr: int, size: int = 1,
                  access: int = PERM_READ) -> int:
        """Translate or raise TranslationFault / ProtectionFault."""
        entry = self.lookup(vaddr, size)
        if entry is None:
            raise TranslationFault(vaddr)
        return entry.translate(vaddr, access)

    def remove_range(self, virt_start: int, virt_end: int
                     ) -> List[RangeEntry]:
        """Unmap [virt_start, virt_end), splitting partial overlaps.

        The removed coverage is returned as one :class:`RangeEntry` per
        contiguous removed piece (the migration engine uses these to
        locate the bytes being moved and to release their physical
        backing).  Entries only partially covered are split: the
        non-overlapping remainders stay mapped, with their physical
        offsets preserved.  Bumps ``version`` exactly once so every
        :class:`TranslationCache` over this table invalidates -- this is
        the TLB-shootdown half of a migration fence.
        """
        if virt_end <= virt_start:
            raise ValueError("empty or inverted range")
        removed: List[RangeEntry] = []
        kept: List[RangeEntry] = []
        for entry in self._entries:
            if entry.virt_end <= virt_start or virt_end <= entry.virt_start:
                kept.append(entry)
                continue
            cut_start = max(entry.virt_start, virt_start)
            cut_end = min(entry.virt_end, virt_end)
            removed.append(RangeEntry(
                virt_start=cut_start, virt_end=cut_end,
                phys_start=entry.translate(cut_start), perms=entry.perms))
            if entry.virt_start < cut_start:
                kept.append(RangeEntry(
                    virt_start=entry.virt_start, virt_end=cut_start,
                    phys_start=entry.phys_start, perms=entry.perms))
            if cut_end < entry.virt_end:
                kept.append(RangeEntry(
                    virt_start=cut_end, virt_end=entry.virt_end,
                    phys_start=entry.translate(cut_end), perms=entry.perms))
        if not removed:
            return []
        if len(kept) > self.capacity:
            raise ValueError(
                f"TCAM full: splitting [{virt_start:#x},{virt_end:#x}) "
                f"needs {len(kept)} entries, capacity {self.capacity}")
        kept.sort(key=lambda e: e.virt_start)
        self._entries = kept
        self.version += 1
        return removed

    def set_permissions(self, virt_start: int, perms: int) -> None:
        """Change permissions of the entry starting at ``virt_start``."""
        for entry in self._entries:
            if entry.virt_start == virt_start:
                entry.perms = perms
                self.version += 1
                return
        raise TranslationFault(virt_start)


class TranslationCache:
    """A per-core TLB over one node's range table (entry granularity).

    The memory access pipeline translates every iteration's aggregated
    LOAD; hardware would not walk the full TCAM each time but hit a tiny
    cache of recently used entries.  This models that stage: a handful
    of whole :class:`RangeEntry` objects in MRU order, checked before
    the backing :class:`RangeTranslationTable`, invalidated wholesale
    whenever the table remaps (its ``version`` moves).  Misses --
    including foreign/invalid pointers -- are never cached, so a re-
    routed traversal always re-consults the authoritative table.

    ``hits``/``misses`` are :class:`~repro.obs.metrics.Counter` s: the
    registry's (``<node>.acc.tlb.hits`` / ``.misses``) when supplied,
    private ones otherwise.

    ``mru`` (the cached entries, most recently used first; one list for
    the cache's life) and ``version`` (the table version they are valid
    for) are readable so a caller can tell when a lookup would be a
    no-op: while ``version == table.version``, a lookup that ``mru[0]``
    covers returns ``mru[0]`` and reorders nothing.  Only :meth:`lookup`
    and :meth:`revalidate` change them.
    """

    def __init__(self, table: RangeTranslationTable, capacity: int = 8,
                 hit_counter=None, miss_counter=None):
        if capacity < 1:
            raise ValueError("translation cache needs >= 1 entry")
        self.table = table
        self.capacity = capacity
        self.mru: List[RangeEntry] = []
        self.version = table.version
        self.hits = hit_counter if hit_counter is not None else Counter(
            "tlb.hits")
        self.misses = miss_counter if miss_counter is not None else Counter(
            "tlb.misses")

    def __len__(self) -> int:
        return len(self.mru)

    def flush(self) -> None:
        self.mru.clear()
        self.version = self.table.version

    def lookup(self, vaddr: int, size: int = 1) -> Optional[RangeEntry]:
        """Entry covering [vaddr, vaddr+size), or None (a table miss)."""
        if self.version != self.table.version:
            self.flush()
        entries = self.mru
        for index, entry in enumerate(entries):
            if entry.covers(vaddr, size):
                self.hits.value += 1
                if index:
                    entries.insert(0, entries.pop(index))
                return entry
        self.misses.value += 1
        entry = self.table.lookup(vaddr, size)
        if entry is not None:
            entries.insert(0, entry)
            if len(entries) > self.capacity:
                entries.pop()
        return entry

    def revalidate(self, entry: RangeEntry, vaddr: int,
                   size: int = 1) -> Optional[RangeEntry]:
        """Re-check a held entry after simulated time has passed.

        A migration fence may remap the table between a pipeline's
        translation stage and its use of the translated address; the
        hardware analogue is the in-flight access being replayed against
        the updated TCAM.  If the table has not moved, the held entry is
        still authoritative and is returned unchanged (zero cost); if it
        has, the cache flushes and the address is re-resolved -- None
        means the mapping is gone (the segment migrated away) and the
        caller must take the miss path.
        """
        if self.version == self.table.version:
            return entry
        self.flush()
        fresh = self.table.lookup(vaddr, size)
        if fresh is not None:
            self.mru.insert(0, fresh)
            if len(self.mru) > self.capacity:
                self.mru.pop()
        return fresh
