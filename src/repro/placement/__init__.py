"""Elastic placement: hotness tracking, live migration, rebalancing.

The paper's rack (section 5) partitions the virtual address space
statically; this package makes *where data lives* a live, adjustable
decision.  See docs/architecture.md, "Placement & migration".

Only the dependency-free leaves are exported here; the migration
engine and the rebalancer (which pull in the memory layer) are imported
from their modules, to keep ``repro.mem`` -> ``repro.placement.rangemap``
import-cycle free.
"""

from repro.placement.hotness import HeatMap, HotnessTracker
from repro.placement.rangemap import PlacementError, PlacementMap

__all__ = [
    "HeatMap",
    "HotnessTracker",
    "PlacementError",
    "PlacementMap",
]
