"""The durability service: per-node redo logging + replication wiring.

:class:`DurabilityService` is the cluster-level object: it owns the
bootstrap capture store (functional builds), one :class:`ReplicaStore`
per node (everything replicated onto that node), one
:class:`NodeDurability` per node (that node's log, flusher, and commit
tracking), the live-node set, and the
:class:`~repro.durability.recovery.RecoveryManager`.

Group commit: a STORE journals a record and arms the commit timer; the
single flush process per node drains the buffer, charges the flush at
the log bandwidth, ships one :class:`~repro.core.messages.
ReplicateRecords` per replica target, and advances the durable LSN only
once every live target acked (a dead target is discarded -- a degraded
commit).  The accelerator's response path waits on ``wait_durable`` so
a client never sees an acknowledgment for bytes that could still be
lost with the node.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.messages import DURABILITY_KIND, ReplicateRecords
from repro.durability.recovery import RecoveryManager
from repro.durability.redolog import RedoLog
from repro.durability.replication import ReplicaStore, replica_targets
from repro.sim.engine import Event


class DurabilityError(RuntimeError):
    """Misuse of the durability subsystem (e.g. kill without it)."""


class NodeDurability:
    """One node's redo log, group-commit flusher, and commit waiters."""

    def __init__(self, service: "DurabilityService", node_id: int):
        self.service = service
        self.env = service.env
        self.params = service.params
        self.node_id = node_id
        self.log = RedoLog(self.params.record_header_bytes)
        self.durable_lsn = 0
        self.dead = False
        #: attached by :meth:`DurabilityService.attach_accelerator`;
        #: replication rides the accelerator's transport session
        self.accelerator = None
        self._kick = Event(self.env)
        self._timer_armed = False
        self._next_flush_id = 0
        #: the one in-flight flush: (flush_id, pending targets, done)
        self._pending: Optional[Tuple[int, Set[int], Event]] = None
        self._waiters: List[Tuple[int, Event]] = []
        registry = service.registry
        prefix = f"mem{node_id}.dur"
        self._m_records = registry.counter(f"{prefix}.records")
        self._m_flushes = registry.counter(f"{prefix}.flushes")
        self._m_flushed_bytes = registry.counter(f"{prefix}.flushed_bytes")
        self._m_replica_tx = registry.counter(
            f"{prefix}.replica_tx_records")
        self._m_acks_rx = registry.counter(f"{prefix}.acks_rx")
        self._m_applied = registry.counter(f"{prefix}.applied_records")
        self._m_commit_waits = registry.counter(f"{prefix}.commit_waits")
        self._m_degraded = registry.counter(f"{prefix}.degraded_commits")
        self._m_restored = registry.counter(f"{prefix}.restored_records")
        self._g_durable = registry.gauge(f"{prefix}.durable_lsn")
        self.env.process(self._flush_loop())

    # -- the journal side ---------------------------------------------------
    def journal(self, vaddr: int, data: bytes) -> int:
        """Append one STORE to the redo log; returns its LSN."""
        record = self.log.append(vaddr, data)
        self._m_records.inc()
        if self.log.buffer_bytes >= self.params.group_commit_bytes:
            self._kick_flush()
        elif not self._timer_armed:
            self._timer_armed = True
            self.env.timeout(self.params.group_commit_ns).callbacks.append(
                self._commit_timer)
        return record.lsn

    def wait_durable(self, lsn: int) -> Optional[Event]:
        """None when ``lsn`` is already durable, else an event to wait on."""
        if lsn <= self.durable_lsn or self.dead:
            return None
        self._m_commit_waits.inc()
        event = Event(self.env)
        self._waiters.append((lsn, event))
        return event

    def _commit_timer(self, _timeout) -> None:
        self._timer_armed = False
        self._kick_flush()

    def _kick_flush(self) -> None:
        if not self._kick.triggered:
            self._kick.succeed()

    # -- the flush side -----------------------------------------------------
    def _flush_loop(self):
        """The single flusher: serialize flushes, monotone durable LSN."""
        while True:
            yield self._kick
            self._kick = Event(self.env)
            while self.log.buffer:
                records = self.log.take_buffer()
                payload = sum(r.wire_bytes for r in records)
                yield self.env.timeout(
                    payload / self.params.log_bandwidth_bytes_per_ns)
                self._m_flushes.inc()
                self._m_flushed_bytes.inc(payload)
                if self.dead:
                    continue
                yield from self._replicate(records)
                self._commit(records[-1].lsn)

    def _replicate(self, records):
        """Ship the flush to every replica target; returns when acked."""
        addrspace = self.service.memory.addrspace
        node_count = self.service.memory.node_count
        per_target: Dict[int, list] = {}
        for record in records:
            home = addrspace.node_of(record.vaddr)
            if home is None:
                continue
            for target in replica_targets(
                    home, self.node_id, node_count, self.service.live,
                    self.params.replication_factor):
                per_target.setdefault(target, []).append(record)
        if not per_target or self.accelerator is None:
            return
        flush_id = self._next_flush_id
        self._next_flush_id += 1
        done = Event(self.env)
        self._pending = (flush_id, set(per_target), done)
        for target, recs in sorted(per_target.items()):
            message = ReplicateRecords(src_node=self.node_id,
                                       flush_id=flush_id,
                                       records=tuple(recs))
            self._m_replica_tx.inc(len(recs))
            self.accelerator.session.send(
                f"mem{target}", DURABILITY_KIND, message,
                message.wire_bytes(), segments=1)
        yield done
        self._pending = None

    def _commit(self, lsn: int) -> None:
        self.durable_lsn = max(self.durable_lsn, lsn)
        self._g_durable.set(float(self.durable_lsn))
        ready = [e for threshold, e in self._waiters
                 if threshold <= self.durable_lsn]
        self._waiters = [(threshold, e) for threshold, e in self._waiters
                         if threshold > self.durable_lsn]
        for event in ready:
            event.succeed()

    # -- the replica side ---------------------------------------------------
    def apply_replica(self, message: ReplicateRecords) -> None:
        """Apply a peer's flush to this node's replica store."""
        store = self.service.replicas[self.node_id]
        for record in message.records:
            store.apply(record.vaddr, record.data)
            self._m_applied.inc()

    def on_ack(self, ack) -> None:
        """A replica target acked one of our flushes."""
        self._m_acks_rx.inc()
        if self._pending is None or ack.flush_id != self._pending[0]:
            return
        _flush_id, targets, done = self._pending
        targets.discard(ack.src_node)
        if not targets and not done.triggered:
            done.succeed()

    # -- failure handling ---------------------------------------------------
    def on_node_dead(self, dead: int) -> None:
        if dead == self.node_id:
            # Our own death: nothing we promised can be re-acknowledged
            # (its powered-off session suppresses every response),
            # so release blocked processes instead of leaking them.
            self.dead = True
            if self._pending is not None and not self._pending[2].triggered:
                self._pending[2].succeed()
            waiters, self._waiters = self._waiters, []
            for _threshold, event in waiters:
                event.succeed()
            return
        if self._pending is not None:
            _flush_id, targets, done = self._pending
            if dead in targets:
                targets.discard(dead)
                if not targets and not done.triggered:
                    self._m_degraded.inc()
                    done.succeed()


class DurabilityService:
    """Cluster-wide durability state: stores, node flushers, recovery."""

    def __init__(self, env, memory, params, registry):
        self.env = env
        self.memory = memory
        self.params = params.durability
        self.registry = registry
        if self.params.replication_factor < 1:
            raise DurabilityError("replication_factor must be >= 1")
        self.live: Set[int] = set(range(memory.node_count))
        #: functional builds (zero simulated time) captured per write --
        #: the content every node's recovery can re-derive for free
        self.bootstrap = ReplicaStore()
        #: node id -> everything runtime flushes replicated onto it
        self.replicas: Dict[int, ReplicaStore] = {
            node_id: ReplicaStore() for node_id in self.live}
        self.nodes: Dict[int, NodeDurability] = {
            node_id: NodeDurability(self, node_id) for node_id in
            sorted(self.live)}
        self.recovery = RecoveryManager(self)
        #: attached by the cluster; recovery re-injects reclaimed frames
        self.switch = None
        self._m_crashes = registry.counter("recovery.crashes")

    def capture(self, vaddr: int, data: bytes) -> None:
        """Record one functional (build-time) write in the bootstrap store."""
        self.bootstrap.apply(vaddr, data)

    def attach_accelerator(self, accelerator) -> None:
        state = self.nodes[accelerator.node.node_id]
        state.accelerator = accelerator
        accelerator.durability = state

    def on_node_added(self, node_id: int) -> None:
        self.live.add(node_id)
        self.replicas[node_id] = ReplicaStore()
        self.nodes[node_id] = NodeDurability(self, node_id)

    def on_node_dead(self, dead: int) -> None:
        """Propagate a crash: drop from the live set, unblock commits."""
        self.live.discard(dead)
        self._m_crashes.inc()
        for state in self.nodes.values():
            state.on_node_dead(dead)
