"""The client-resident directory behind the split-index fast path.

One :class:`SplitIndexDirectory` lives inside each
:class:`~repro.core.client.PulseClient`.  It maps a structure key to the
virtual address of the node that terminates the key's traversal, plus
the memory node that owned the address and the
:class:`~repro.placement.rangemap.PlacementMap` version ("placement
epoch") at learn time.  Entries arrive two ways:

* **lazily** -- every completed offloaded traversal of an indexable
  iterator reports its terminal (key, vaddr) back to the directory;
* **bulk** -- :meth:`bulk_load` walks a freshly built structure's
  ``index_entries()`` and primes the whole key space at once.

The directory is a *hint cache*, never an authority: a direct read
against a stale entry NACKs at the memory node (which validates the
address against its live translation table and placement before
touching DRAM) and the client falls back to the offloaded traversal,
repairing the entry from the fresh result.  Capacity is bounded with
FIFO eviction, mirroring the switch's bounded client table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.obs.metrics import MetricsRegistry


@dataclass
class IndexEntry:
    """Where a key's terminal node lived when we last saw it."""

    node_id: int
    vaddr: int
    epoch: int


class SplitIndexDirectory:
    """Bounded key -> :class:`IndexEntry` cache with epoch invalidation."""

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 name: str = "client", invalidate_on_move: bool = True):
        self.name = name
        #: entries held before the oldest is evicted
        self.capacity = 1 << 20
        #: when False the directory keeps stale entries until a direct
        #: read NACKs (lazy repair); when True ``on_move`` drops them
        #: eagerly as the placement map changes
        self.invalidate_on_move = invalidate_on_move
        self._entries: Dict[int, IndexEntry] = {}
        if registry is None:
            registry = MetricsRegistry()
        # Shared, cluster-wide counters (get-or-create by dotted name).
        self.hits = registry.counter("index.hits")
        self.misses = registry.counter("index.misses")
        self.stale_nacks = registry.counter("index.stale_nacks")
        self.timeouts = registry.counter("index.timeouts")
        self.decode_misses = registry.counter("index.decode_misses")
        self.repairs = registry.counter("index.repairs")
        self.evictions = registry.counter("index.evictions")
        self.invalidations = registry.counter("index.invalidations")
        # Occupancy is per-directory, so the gauge name must be too.
        registry.gauge(f"{name}.index.entries",
                       fn=lambda: len(self._entries))

    # -- lookup / learn ------------------------------------------------------
    def lookup(self, key: int) -> Optional[IndexEntry]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses.inc()
            return None
        self.hits.inc()
        return entry

    def learn(self, key: int, node_id: int, vaddr: int,
              epoch: int) -> None:
        """Insert or refresh one entry (FIFO-evicting when full)."""
        existing = self._entries.pop(key, None)
        if existing is None and len(self._entries) >= self.capacity:
            self._entries.pop(next(iter(self._entries)))
            self.evictions.inc()
        self._entries[key] = IndexEntry(node_id, vaddr, epoch)
        if existing is not None:
            self.repairs.inc()

    def invalidate(self, key: int) -> bool:
        if self._entries.pop(key, None) is None:
            return False
        self.invalidations.inc()
        return True

    # -- bulk priming --------------------------------------------------------
    def bulk_load(self, entries: Iterable[Tuple[int, int]],
                  placement_map) -> int:
        """Prime the directory from a structure's ``index_entries()``.

        ``entries`` yields (key, vaddr); ownership and epoch come from
        the live placement map.  Returns the number of entries loaded.
        """
        loaded = 0
        epoch = placement_map.version
        for key, vaddr in entries:
            self.learn(key, placement_map.node_of(vaddr), vaddr, epoch)
            loaded += 1
        return loaded

    # -- placement-change invalidation ---------------------------------------
    def on_move(self, virt_start: int, virt_end: int, new_owner: int,
                version: int) -> None:
        """Placement-map subscriber: drop entries in a migrated range.

        Entries are dropped rather than retargeted: the bytes at the
        destination are correct, but retargeting would hide staleness
        bugs from the NACK path, and the next traversal re-learns the
        entry with the fresh owner anyway.
        """
        if not self.invalidate_on_move:
            return
        stale = [k for k, e in self._entries.items()
                 if virt_start <= e.vaddr < virt_end]
        for k in stale:
            del self._entries[k]
        if stale:
            self.invalidations.inc(len(stale))
