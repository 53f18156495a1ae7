"""Crash injection and mid-traversal failover.

``CrashInjector(i, at_ns)`` powers node ``i`` off at one simulated instant:
its accelerator stops receiving, its transmissions vanish, and every
byte in its DRAM is gone.  :class:`RecoveryManager` then runs the
recovery schedule:

1. **Detect** -- the failure detector (missed heartbeats at the switch)
   takes ``failure_detect_ns`` before recovery starts; new frames keep
   routing into the black hole meanwhile and are recovered later.
2. **Replay** -- a timed phase charging the heir's log/extent replay at
   ``replay_bandwidth_bytes_per_ns`` plus a fixed per-range cursor
   cost, sized from the dead node's *mapped* TCAM coverage (pure
   metadata, so every process in a sharded run charges the identical
   time).
3. **Fence** -- zero simulated time, the migration fence's own
   switch-over (:func:`~repro.placement.migration.switch_ownership`)
   with a dead source: each rule the dead node owned moves to its
   *heir*, the dead node's first live successor -- its first replica
   target, which holds exactly what it wrote.  The heir adopts
   physical memory and maps the rule zero-filled, the allocator and
   placement map retarget it (the switch-rule update), and content is
   restored from the bootstrap store plus the heir's replica store
   (never from the dead DRAM).  The heir's own targets then image its
   bytes, so a later crash of the heir loses nothing either.
4. **Resume** -- the switch reclaims every unacked frame it ever sent
   toward the dead node (checkpointed mid-traversal continuations *and*
   fresh submissions still retrying into the black hole), re-resolves
   each against the live map, and re-injects it at the new owner.
   Clients see elevated latency, not faults.

Known limitations: a crash during another's replay, two at once, and
crashes racing migrations of the affected ranges are unsupported, as is
a second crash of a sharded run; build-time writes replay first, so one
made after the run started can be undone by an older image.
"""

from __future__ import annotations

from repro.durability.replication import replica_targets
from repro.placement.migration import (MigrationError, mapped_pieces,
                                       switch_ownership)


class RecoveryError(Exception):
    """Recovery cannot re-home a dead node's range (capacity, TCAM)."""


class RecoveryManager:
    """Re-homes a dead node's rules onto its first live successor."""

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
        rules = self.memory.placement.rules_of(dead)
        pieces = []
        for start, end in rules:
            pieces.extend(mapped_pieces(dead_node.table.entries,
                                        start, end))
        replay_bytes = sum(end - start for start, end in pieces)
        replay_ns = (len(pieces) * self.params.replay_range_ns
                     + replay_bytes
                     / self.params.replay_bandwidth_bytes_per_ns)
        yield self.env.timeout(replay_ns)
        self._m_bytes.inc(replay_bytes)

        # The fence: no simulated time passes below, so traversals can
        # never observe a half-recovered rule.
        if rules:
            heir = self._heir(dead)
            for start, end in rules:
                self._rehome(dead, heir, start, end)
                self._m_ranges.inc()
            self.service.on_range_adopted(heir)

        self._m_completed.inc()
        self._g_ttr.set(self.env.now - started)
        if self.service.switch is not None:
            self.service.switch.reinject(dead_node.name)

    # -- internals ----------------------------------------------------------
    def _heir(self, dead: int) -> int:
        """The dead node's first live successor, whatever ``k`` is."""
        heirs = replica_targets(dead, self.memory.node_count,
                                self.service.live, 2)
        if not heirs:
            raise RecoveryError(
                f"no live node can adopt the rules of dead node {dead}")
        return heirs[0]

    def _rehome(self, dead: int, heir: int, virt_start: int,
                virt_end: int) -> None:
        """Adopt one of the dead node's rules on its heir."""
        memory = self.memory
        # The dead DRAM is gone: the switch-over zero-fills the adopted
        # spans and content is rebuilt purely from the logged images.
        try:
            _total, _live, inserted = switch_ownership(
                memory, dead, heir, virt_start, virt_end,
                source_alive=False)
        except MigrationError as exc:
            raise RecoveryError(str(exc)) from exc
        self._restore(memory.nodes[heir], heir, inserted, virt_start,
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
