"""The programmable switch: in-network traversal routing (section 5).

The switch holds exactly one rule per memory node -- the range partition
of the global virtual address space (section 6: "ADPDM's translations add
only one additional rule per memory node").  For every pulse message it
inspects the embedded ``cur_ptr``:

* status RUNNING  -> route to the memory node owning ``cur_ptr`` (this is
  both the initial client->memory delivery and, crucially, the
  memory->memory re-route that saves half a round trip plus the CPU-node
  software stack on distributed traversals);
* status DONE/FAULT/ITER_LIMIT -> deliver to the client that issued it.

The ``bounce_to_client`` flag turns the switch into the pulse-ACC
baseline of Fig 8: RUNNING responses from a memory node are sent back to
the client instead of being re-routed, forcing the traversal through the
CPU node's network stack on every inter-node hop.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.accelerator import PULSE_KIND
from repro.core.messages import (SWITCH, RequestStatus, TraversalBatch,
                                 TraversalRequest)
from repro.obs.metrics import MetricsRegistry
from repro.placement.rangemap import PlacementMap
from repro.params import SystemParams
from repro.sim.engine import Environment
from repro.sim.network import Fabric, Message
from repro.transport import TransportSession

#: default bound on the request-id -> client table (switch SRAM is finite)
CLIENT_TABLE_CAPACITY = 1024


class _ClientEntry:
    """One learned request-id binding: who to reply to, and liveness.

    ``epoch`` is the highest inter-node hop count routed for the id;
    ``last_seen`` is bumped on *every* frame carrying the id, so the
    eviction scan can tell an in-flight traversal (recent activity)
    from an abandoned binding whose terminal response was lost.
    """

    __slots__ = ("client", "epoch", "last_seen")

    def __init__(self, client: str, epoch: int, last_seen: float):
        self.client = client
        self.epoch = epoch
        self.last_seen = last_seen


class PulseSwitch:
    """Tofino-style range-routing for pulse traversal packets."""

    def __init__(self, env: Environment, fabric: Fabric,
                 rangemap: PlacementMap, params: SystemParams,
                 bounce_to_client: bool = False,
                 registry: Optional[MetricsRegistry] = None):
        self.env = env
        self.fabric = fabric
        #: the live ownership rules, shared with GlobalMemory, the
        #: accelerators and the migration engine (one rule per node
        #: until a migration splits one)
        self.rangemap = rangemap
        self.params = params
        self.name = SWITCH
        self.bounce_to_client = bounce_to_client
        self.session = TransportSession(env, fabric, SWITCH,
                                        params=params.transport,
                                        registry=registry)
        #: request id -> :class:`_ClientEntry`, learned from requests;
        #: the hardware encodes the client in the packet's source
        #: fields.  Insertion-ordered and bounded: entries whose
        #: terminal response was lost would otherwise pin SRAM forever,
        #: so once the table is full the oldest *inactive* entry is
        #: evicted -- entries with recent frames (an in-flight
        #: traversal) are skipped, or the RETURN frame would find no
        #: binding and be dropped as stale, orphaning the traversal.
        self._table: Dict[tuple, _ClientEntry] = {}
        self.client_table_capacity = CLIENT_TABLE_CAPACITY
        if registry is None:
            registry = fabric.registry
        self.registry = registry
        self._events = registry.events
        self._m_routed = registry.counter("switch.routed_to_memory")
        self._m_rerouted = registry.counter(
            "switch.rerouted_node_to_node")
        self._m_returned = registry.counter("switch.returned_to_client")
        self._m_dropped_stale = registry.counter("switch.dropped_stale")
        self._m_stale_epoch = registry.counter("switch.stale_epoch_drops")
        self._m_evicted = registry.counter("switch.evicted_entries")
        self._m_evict_avoided = registry.counter(
            "switch.client_evict_inflight_avoided")
        self._m_batches = registry.counter("switch.batches_routed")
        self._m_batch_splits = registry.counter("switch.batch_splits")
        self._m_moved = registry.counter("switch.moved_redirects")
        self._m_reinjected = registry.counter("switch.reinjected_frames")
        registry.gauge("switch.client_table_occupancy",
                       fn=lambda: len(self._table))
        registry.gauge("switch.rules",
                       fn=lambda: float(self.rangemap.rule_count))
        # Mean inter-node hops per completed traversal: every reroute is
        # one switch hop plus a transport checkpoint the affinity
        # rebalancer exists to remove.  0.0 until a traversal returns.
        registry.gauge("placement.hops_per_traversal",
                       fn=self.hops_per_traversal)
        self.session.on_message = self._on_message

    def hops_per_traversal(self) -> float:
        """switch.rerouted_node_to_node / switch.returned_to_client."""
        returned = self._m_returned.value
        if not returned:
            return 0.0
        return self._m_rerouted.value / returned

    def _on_message(self, message: Message) -> None:
        # Non-pulse traffic never targets the switch endpoint;
        # baselines talk host-to-host through the fabric directly.
        if message.kind == PULSE_KIND:
            self._route(message)

    def _route(self, message: Message) -> None:
        """Route every request a frame carries; a bare request is a frame
        of one.

        A request bound for the client -- terminal, bounced (pulse-ACC)
        or FAULTed -- leaves at once on its own.  The memory-bound rest
        leave as one frame per owning node, in first-seen order: the
        hardware analogue is a recirculating deparse that groups a
        doorbell batch's requests by the range rule their ``cur_ptr``
        matches.  A bare request leaves at the size it arrived with; the
        frames a batch splits into are sized anew.
        """
        payload = message.payload
        if isinstance(payload, TraversalBatch):
            self._m_batches.inc()
            requests = payload.requests
            frame_bytes = 0
        else:
            requests = (payload,)
            frame_bytes = message.size_bytes
        src = message.src
        from_memory = src.startswith("mem")
        per_owner: Dict[int, list] = {}
        for request in requests:
            if not from_memory:
                # Request from a client: remember who to reply to (the
                # hardware carries this in the packet's source fields).
                # A (re)submission also resets the traversal's hop
                # epoch: the client is deliberately restarting the chain.
                self._learn_client(request, src)
            entry = self._table.get(request.request_id)
            if entry is not None:
                # Any frame for the id -- either direction -- proves the
                # traversal is alive; the eviction scan keys off this.
                entry.last_seen = self.env.now
            client = entry.client if entry is not None else src

            if request.status is RequestStatus.MOVED:
                # A straggler reached the *old* owner of a migrated
                # segment (it was parked in an admission queue, or in
                # flight when the rule changed); the node bounced it back
                # tagged MOVED.  The traversal is alive -- re-resolve
                # cur_ptr against the live rules and retry it at the
                # current owner.
                if self._stale_epoch(request):
                    self._m_stale_epoch.inc()
                    continue
                owner = self.rangemap.node_of(request.cur_ptr)
                if owner is None or f"mem{owner}" == src:
                    # The live map agrees with the node that bounced it:
                    # nobody serves this pointer.  A genuine fault, not a
                    # migration race.
                    self._fault(request, f"switch: no live owner for "
                                f"moved pointer {request.cur_ptr:#x}",
                                client, frame_bytes)
                    continue
                request.status = RequestStatus.RUNNING
                self._m_moved.inc()
                if self._events is not None:
                    self._events.record(self.name, "moved_redirect",
                                        request.request_id,
                                        dst=f"mem{owner}")
            elif request.status is RequestStatus.RUNNING:
                if from_memory and self._stale_epoch(request):
                    # A hop frame the traversal has already advanced past
                    # (e.g. a leftover of an earlier end-to-end attempt):
                    # routing it would fork the traversal into a second
                    # chain racing the live one.
                    self._m_stale_epoch.inc()
                    continue
                if from_memory and self.bounce_to_client:
                    # pulse-ACC: hand the continuation back to the CPU
                    # node.
                    self._m_returned.inc()
                    self._send(request, client, frame_bytes)
                    continue
                owner = self.rangemap.node_of(request.cur_ptr)
                if owner is None:
                    self._fault(request, f"switch: unroutable pointer "
                                f"{request.cur_ptr:#x}", client,
                                frame_bytes)
                    continue
                if from_memory:
                    self._m_rerouted.inc()
                    if self._events is not None:
                        self._events.record(self.name, "reroute",
                                            request.request_id,
                                            dst=f"mem{owner}")
                else:
                    self._m_routed.inc()
                    if self._events is not None:
                        self._events.record(self.name, "route_to_memory",
                                            request.request_id,
                                            dst=f"mem{owner}")
            else:
                # Terminal statuses go home.  A terminal response whose
                # request id is unknown is a stale duplicate (its
                # original already completed, e.g. after a spurious
                # retransmission): drop it.
                if from_memory and entry is None:
                    self._m_dropped_stale.inc()
                    continue
                self._m_returned.inc()
                if self._events is not None:
                    self._events.record(self.name, "return_to_client",
                                        request.request_id, dst=client)
                self._table.pop(request.request_id, None)
                self._send(request, client, frame_bytes)
                continue
            per_owner.setdefault(owner, []).append(request)

        if len(per_owner) > 1:
            self._m_batch_splits.inc()
        for owner, routed in per_owner.items():
            if len(routed) > 1:
                self._send(TraversalBatch(routed), f"mem{owner}")
            else:
                self._send(routed[0], f"mem{owner}", frame_bytes)

    def _learn_client(self, request: TraversalRequest, src: str) -> None:
        """Record the issuing client, evicting when the table is full.

        Eviction walks insertion order (oldest first) but *skips*
        entries that carried a frame within the last retransmission
        window -- those traversals are in flight, and evicting one
        orphans its RETURN frame (the terminal path drops unknown ids
        as stale duplicates).  Only if every entry looks active is the
        least-recently-seen one force-evicted.
        """
        entry = self._table.get(request.request_id)
        if entry is not None:
            entry.client = src
            entry.epoch = request.node_hops
            entry.last_seen = self.env.now
            return
        if len(self._table) >= self.client_table_capacity:
            self._evict_one()
        self._table[request.request_id] = _ClientEntry(
            src, request.node_hops, self.env.now)

    def _evict_one(self) -> None:
        now = self.env.now
        window = self.params.network.retransmit_timeout_ns
        skipped_inflight = False
        victim = None
        for rid, entry in self._table.items():
            if now - entry.last_seen < window:
                skipped_inflight = True
                continue
            victim = rid
            break
        if victim is None:
            # Every entry is plausibly in flight: evict the stalest one
            # anyway -- the table must admit the new request.
            victim = min(self._table,
                         key=lambda rid: self._table[rid].last_seen)
        elif skipped_inflight:
            self._m_evict_avoided.inc()
        self._table.pop(victim)
        self._m_evicted.inc()

    def _stale_epoch(self, request: TraversalRequest) -> bool:
        """True when a from-memory RUNNING frame is behind the chain.

        The recorded epoch is the highest hop count this request id has
        been routed at; an equal hop count is *not* stale (retries and
        NACK resubmissions legitimately repeat an epoch), only a
        strictly lower one is.
        """
        entry = self._table.get(request.request_id)
        if entry is None:
            return False
        if request.node_hops < entry.epoch:
            return True
        if request.node_hops > entry.epoch:
            entry.epoch = request.node_hops
        return False

    def reinject(self, dead: str) -> int:
        """Failover takeover: reclaim every frame in flight toward ``dead``.

        Recovery calls this after the fence retargets the dead node's
        ranges.  The switch's reliable layer still holds every unacked
        frame it sent into the black hole -- checkpointed mid-traversal
        continuations *and* fresh submissions that arrived during the
        detection window.  Each is re-resolved against the live rules
        and re-injected at the range's new owner, so the traversal
        resumes from its serialized state instead of waiting out the
        client's end-to-end retry.  Returns the number of frames
        re-injected.
        """
        reinjected = 0
        for payload in self.session.take_over(dead):
            if isinstance(payload, TraversalBatch):
                requests = list(payload)
            else:
                requests = [payload]
            for request in requests:
                if not isinstance(request, TraversalRequest):
                    continue
                if request.status is RequestStatus.MOVED:
                    # The frame was bounced by an old owner and the dead
                    # node was the redirect target; the re-resolution
                    # below *is* the redirect.
                    request.status = RequestStatus.RUNNING
                owner = self.rangemap.node_of(request.cur_ptr)
                if owner is None or f"mem{owner}" == dead:
                    # Recovery did not retarget this pointer (it was
                    # never mapped): a genuine fault, returned to the
                    # issuing client if we still know it.
                    entry = self._table.get(request.request_id)
                    if entry is None:
                        self._m_dropped_stale.inc()
                        continue
                    self._fault(request, f"switch: no live owner for "
                                f"pointer {request.cur_ptr:#x} after "
                                f"failover", entry.client)
                    continue
                self._m_reinjected.inc()
                if self._events is not None:
                    self._events.record(self.name, "failover_reinject",
                                        request.request_id, dst=f"mem{owner}")
                self._send(request, f"mem{owner}")
                reinjected += 1
        return reinjected

    def _fault(self, request: TraversalRequest, reason: str, client: str,
               frame_bytes: int = 0) -> None:
        """Turn ``request`` into a FAULT and send it to ``client``; its
        client-table entry goes with it."""
        request.status = RequestStatus.FAULT
        request.fault_reason = reason
        self._m_returned.inc()
        self._table.pop(request.request_id, None)
        self._send(request, client, frame_bytes)

    def _send(self, payload, dst: str, size_bytes: int = 0) -> None:
        """One frame out, ``size_bytes`` on the wire (0: the payload's
        own wire size)."""
        self.session.send(dst, PULSE_KIND, payload,
                          size_bytes or payload.wire_bytes(), segments=1)
