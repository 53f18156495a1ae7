"""Crash injection and mid-traversal failover.

``cluster.kill_node(i)`` powers node ``i`` off at one simulated instant:
its accelerator stops receiving, its transmissions vanish, and every
byte in its DRAM is gone.  :class:`RecoveryManager` then runs the
recovery schedule:

1. **Detect** -- the failure detector (missed heartbeats at the switch)
   takes ``failure_detect_ns`` before recovery starts; new frames keep
   routing into the black hole meanwhile and are recovered later.
2. **Replay** -- a timed phase charging the elected owners' log/extent
   replay at ``replay_bandwidth_bytes_per_ns`` plus a fixed per-range
   cursor cost, sized from the dead node's *mapped* TCAM coverage
   (pure metadata, so every process in a sharded run charges the
   identical time).
3. **Fence** -- zero simulated time, the migration fence's own
   switch-over (:func:`~repro.placement.migration.switch_ownership`)
   with a dead source: for each home-aligned segment the dead node
   owned, the elected replica owner adopts physical memory and maps
   the segment zero-filled, the allocator + placement map retarget the
   range -- the switch-rule update -- and content is restored from the
   bootstrap store plus the owner's replica store (never from the dead
   DRAM).
4. **Resume** -- the switch reclaims every unacked frame it ever sent
   toward the dead node (checkpointed mid-traversal continuations *and*
   fresh submissions still retrying into the black hole), re-resolves
   each against the live map, and re-injects it at the new owner.
   Clients see elevated latency, not faults.

Known limitations: a segment migrated *after* a STORE was acknowledged
strands that record's replicas on the peers of its old home (asserted,
as a strict xfail, by ``tests/test_migration_differential.py::
test_acknowledged_stores_survive_migration_onto_the_replica_holder``);
one crash at a time; crash schedules must not race migrations of the
affected ranges.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.durability.replication import elect_owner
from repro.placement.migration import (MigrationError, mapped_pieces,
                                       switch_ownership)


class RecoveryError(Exception):
    """Recovery cannot re-home a dead node's range (capacity, TCAM)."""


class RecoveryManager:
    """Re-homes a dead node's ranges onto elected replica owners."""

    def __init__(self, service):
        self.service = service
        self.env = service.env
        self.memory = service.memory
        self.params = service.params
        registry = service.registry
        self._m_completed = registry.counter("recovery.completed")
        self._m_ranges = registry.counter("recovery.ranges_rehomed")
        self._m_bytes = registry.counter("recovery.bytes_replayed")
        self._g_ttr = registry.gauge("recovery.time_to_recover_ns")

    # -- the recovery schedule ----------------------------------------------
    def recover(self, dead: int):
        """Simulation process: detect, replay, fence, resume."""
        started = self.env.now
        yield self.env.timeout(self.params.failure_detect_ns)

        dead_node = self.memory.nodes[dead]
        segments = []
        for start, end in self.memory.placement.rules_of(dead):
            segments.extend(self._split_homes(start, end))
        pieces = []
        for start, end in segments:
            pieces.extend(mapped_pieces(dead_node.table.entries,
                                        start, end))
        replay_bytes = sum(end - start for start, end in pieces)
        replay_ns = (len(pieces) * self.params.replay_range_ns
                     + replay_bytes
                     / self.params.replay_bandwidth_bytes_per_ns)
        yield self.env.timeout(replay_ns)
        self._m_bytes.inc(replay_bytes)

        # The fence: no simulated time passes below, so traversals can
        # never observe a half-recovered segment.
        for start, end in segments:
            self._rehome(dead, start, end)
            self._m_ranges.inc()

        self._m_completed.inc()
        self._g_ttr.set(self.env.now - started)
        if self.service.switch is not None:
            self.service.switch.reinject(dead_node.name)

    # -- internals ----------------------------------------------------------
    def _split_homes(self, start: int, end: int) -> List[Tuple[int, int]]:
        """Cut one ownership rule at arithmetic home boundaries.

        Replica placement and owner election are keyed off a segment's
        arithmetic home, so a rule that coalesced across node boundaries
        recovers per home -- each sub-segment lands exactly where its
        records were replicated.
        """
        addrspace = self.memory.addrspace
        out = []
        cursor = start
        while cursor < end:
            home = addrspace.node_of(cursor)
            _home_start, home_end = addrspace.range_of(home)
            cut = min(end, home_end)
            out.append((cursor, cut))
            cursor = cut
        return out

    def _rehome(self, dead: int, virt_start: int, virt_end: int) -> None:
        """Adopt one home-aligned segment on the elected replica owner."""
        memory = self.memory
        home = memory.addrspace.node_of(virt_start)
        owner = elect_owner(home, dead, memory.node_count,
                            self.service.live)
        if owner is None:
            raise RecoveryError(
                f"no live node can adopt [{virt_start:#x},{virt_end:#x}) "
                f"from dead node {dead}")
        # The dead DRAM is gone: the switch-over zero-fills the adopted
        # spans and content is rebuilt purely from the logged images.
        try:
            _total, _live, inserted = switch_ownership(
                memory, dead, owner, virt_start, virt_end,
                source_alive=False)
        except MigrationError as exc:
            raise RecoveryError(str(exc)) from exc
        self._restore(memory.nodes[owner], owner, inserted, virt_start,
                      virt_end)

    def _restore(self, dst_node, owner: int, inserted, virt_start: int,
                 virt_end: int) -> None:
        """Replay logged content onto the freshly mapped pieces.

        Bootstrap records (the functional build, identical in every
        process) first, then the owner's replica store (runtime STOREs
        in arrival order) -- later images of an address overwrite
        earlier ones, exactly redo semantics.
        """
        restored = self.service.nodes[owner]._m_restored
        for store in (self.service.bootstrap,
                      self.service.replicas[owner]):
            for _seq, vaddr, data in store.overlapping(virt_start,
                                                       virt_end):
                applied = False
                for entry in inserted:
                    clip_start = max(vaddr, entry.virt_start)
                    clip_end = min(vaddr + len(data), entry.virt_end)
                    if clip_start >= clip_end:
                        continue
                    dst_node.write_virt(
                        clip_start,
                        data[clip_start - vaddr:clip_end - vaddr])
                    applied = True
                if applied:
                    restored.inc()


class CrashInjector:
    """A deterministic kill schedule usable as a replicated factory.

    ``cluster.shard(replicated=(CrashInjector(node, at_ns),))`` runs the
    identical kill at the identical instant in every replica -- the one
    way to crash a node of a sharded rack.
    """

    def __init__(self, node_id: int, at_ns: float):
        self.node_id = node_id
        self.at_ns = at_ns

    def __call__(self, cluster):
        def crash():
            yield cluster.env.timeout(self.at_ns)
            cluster._kill_node_local(self.node_id)
        return crash()
