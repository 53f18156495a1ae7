"""The mutable, versioned ownership map: which node serves which range.

The paper's switch (section 5) holds one immutable range rule per memory
node -- the arithmetic partition of :class:`~repro.mem.addrspace.
AddressSpace`.  Elastic placement keeps that map as the *initial* state
but makes it mutable: a live migration carves a sub-range out of its
home rule and points it at the new owner.  The map is shared by the
switch (packet routing), :class:`~repro.mem.node.GlobalMemory`
(functional reads/writes), and the allocator (``free()`` must credit the
current owner), so one ``move()`` retargets every layer at one simulated
instant.

``version`` counts rule updates.  It is the switch-level analogue of the
TCAM's version counter: observers that cache routing decisions can
detect staleness with one comparison.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Tuple


class PlacementError(Exception):
    """Invalid placement-map mutation."""


class PlacementMap:
    """Sorted, non-overlapping (start, end, owner) rules with a version.

    Rules partition exactly the address ranges the backing
    :class:`~repro.mem.addrspace.AddressSpace` defines; lookups outside
    them return None (unroutable, e.g. NULL).  Adjacent same-owner rules
    are coalesced, so a freshly built map has exactly one rule per node
    -- the invariant section 6 of the paper counts on -- and the rule
    count only grows while placement actually diverges from the
    arithmetic partition.
    """

    def __init__(self, addrspace):
        self.addrspace = addrspace
        self._starts: List[int] = []
        self._rules: List[Tuple[int, int, int]] = []
        self.version = 0
        #: move() observers: fn(virt_start, virt_end, new_owner, version)
        self._subscribers: List = []
        for start, end, node_id in addrspace.switch_rules():
            self._rules.append((start, end, node_id))
        self._rules.sort()
        self._starts = [r[0] for r in self._rules]

    def subscribe(self, callback) -> None:
        """Register a ``move()`` observer.

        Called *after* the rules and version update, with
        ``(virt_start, virt_end, new_owner, version)`` -- how cached
        routing state (e.g. a client's split-index directory) learns to
        drop entries for a migrated range at the migration's fence
        instant rather than on the first stale NACK.
        """
        self._subscribers.append(callback)

    @property
    def rule_count(self) -> int:
        return len(self._rules)

    def rules(self) -> List[Tuple[int, int, int]]:
        """A copy of the (start, end, owner) rules, sorted by start."""
        return list(self._rules)

    def rules_of(self, node_id: int) -> List[Tuple[int, int]]:
        """The (start, end) ranges currently owned by ``node_id``."""
        return [(s, e) for s, e, owner in self._rules if owner == node_id]

    def node_of(self, vaddr: int) -> Optional[int]:
        """Owner of ``vaddr``, or None if unmapped (e.g. NULL)."""
        index = bisect.bisect_right(self._starts, vaddr) - 1
        if index < 0:
            return None
        start, end, owner = self._rules[index]
        if vaddr >= end:
            return None
        return owner

    def add_node(self, node_id: int) -> None:
        """Append the rule for a node just added via ``addrspace.grow``."""
        start, end = self.addrspace.range_of(node_id)
        if self._rules and self._rules[-1][1] > start:
            raise PlacementError(
                f"new node {node_id} range overlaps existing rules")
        self._rules.append((start, end, node_id))
        self._starts.append(start)
        self.version += 1

    def move(self, virt_start: int, virt_end: int, new_owner: int) -> None:
        """Retarget [virt_start, virt_end) to ``new_owner``.

        Splits partially covered rules, coalesces same-owner neighbours,
        and bumps ``version`` exactly once.  The range must be fully
        covered by existing rules (ownership is total over the mapped
        space; there is nothing to move outside it).
        """
        if virt_end <= virt_start:
            raise PlacementError("empty or inverted range")
        self.addrspace._check_node(new_owner)
        covered = 0
        rebuilt: List[Tuple[int, int, int]] = []
        for start, end, owner in self._rules:
            if end <= virt_start or virt_end <= start:
                rebuilt.append((start, end, owner))
                continue
            cut_start = max(start, virt_start)
            cut_end = min(end, virt_end)
            covered += cut_end - cut_start
            if start < cut_start:
                rebuilt.append((start, cut_start, owner))
            if cut_end < end:
                rebuilt.append((cut_end, end, owner))
        if covered != virt_end - virt_start:
            raise PlacementError(
                f"[{virt_start:#x},{virt_end:#x}) is not fully covered "
                "by existing rules")
        rebuilt.append((virt_start, virt_end, new_owner))
        rebuilt.sort()
        # Coalesce adjacent same-owner rules.
        coalesced: List[Tuple[int, int, int]] = []
        for rule in rebuilt:
            if (coalesced and coalesced[-1][2] == rule[2]
                    and coalesced[-1][1] == rule[0]):
                coalesced[-1] = (coalesced[-1][0], rule[1], rule[2])
            else:
                coalesced.append(rule)
        self._rules = coalesced
        self._starts = [r[0] for r in self._rules]
        self.version += 1
        for callback in self._subscribers:
            callback(virt_start, virt_end, new_owner, self.version)
