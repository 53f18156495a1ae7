"""The transport session: one component's reliable face on the fabric.

``session.send(...)`` on the way out, ``session.on_message`` on the
way in.  The session registers the component's fabric endpoint and
installs itself as that endpoint's receive filter, so ACK handling and
duplicate suppression run inside the fabric's arrival callback and
whatever survives is handed to the component's ``on_message`` handler
from that same callback -- no queue, no heap entry and no process
between the wire and the component.  A session nobody assigned a
handler to keeps the endpoint's ``inbox`` as its sink.

Per directed flow (this endpoint -> one destination) the sender assigns
monotonically increasing sequence numbers, keeps every unacknowledged
segment in an outstanding table, and arms one retransmission timer per
unacked segment (a callback, never a process): capped exponential
backoff with +/-20% jitter so synchronized losses do not retransmit in
lockstep.  The ACK, or ``take_over``, cancels the timer.  The receiver
ACKs every data segment -- including duplicates, whose original ACK may
itself have been lost -- and suppresses duplicates with a per-source
(floor, seen-set) window before anything reaches the component; the
seen-set holds only sequence numbers that arrived out of order.

Arming is per-link: in ``TransportParams.mode="auto"`` a send is
reliable exactly when the link toward its destination has a lossy
:class:`~repro.sim.network.LinkProfile`.  Unarmed sends cut through --
no header bytes, no ACK traffic, no extra latency -- so a lossless
fabric behaves exactly as it would without a transport.  In
``mode="never"`` nothing arms even on a lossy link, which leaves the
client's end-to-end retry as the only recovery and so exercises it.

The session understands just enough about traversal frames to make
per-hop reliability meaningful: a :class:`~repro.core.messages.
TraversalRequest` in flight between memory nodes carries the serialized
(cur_ptr, scratch pad, iteration count) state -- a *checkpoint* -- so
the session stamps its hop count into the transport header's hop-epoch
field and flags in-progress RUNNING frames as checkpoints.  When such a
frame is lost and retransmitted, the traversal resumes from hop k's
checkpoint instead of restarting end-to-end from ``init()``; the
client's ``PendingTraversal`` retry remains only as the last resort
when a hop exhausts its own retransmission budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Set

from repro.core.messages import (TP_FLAG_ACK, TP_FLAG_CHECKPOINT,
                                 TRANSPORT_VERSION, RequestStatus,
                                 TransportHeader, TraversalRequest)
from repro.obs.metrics import MetricsRegistry
from repro.params import TransportParams
from repro.sim.engine import Environment, Timeout
from repro.sim.network import Endpoint, Fabric, Message
from repro.sim.resources import Store

#: message kind of standalone ACK segments (never seen by components;
#: the receive filter consumes them)
TP_ACK_KIND = "tp.ack"


@dataclass
class Segment:
    """An armed data segment: transport header + the original message."""

    header: TransportHeader
    kind: str
    payload: Any
    size_bytes: int
    segments: int = 2


@dataclass(frozen=True)
class Ack:
    """A standalone acknowledgment for one data segment."""

    header: TransportHeader


@dataclass
class _TxEntry:
    segment: Segment
    dst: str
    attempts: int = 0
    #: the armed retransmission timer
    timer: Optional[Timeout] = None
    #: the backoff (ns) that timer was armed with, before jitter
    backoff: float = 0.0


@dataclass
class _TxFlow:
    next_seq: int = 1
    outstanding: Dict[int, _TxEntry] = field(default_factory=dict)


@dataclass
class _RxFlow:
    #: every sequence number <= floor is a duplicate: it was seen, or
    #: the window overflowed past it unseen
    floor: int = 0
    #: sequence numbers above floor + 1 that were seen
    seen: Set[int] = field(default_factory=set)


class TransportSession:
    """Sequencing, ack/retransmit and dedup for one named component."""

    def __init__(self, env: Environment, fabric: Fabric, name: str,
                 params: Optional[TransportParams] = None,
                 registry: Optional[MetricsRegistry] = None,
                 seed: Optional[int] = None,
                 default_segments: int = 2):
        if params is None:
            params = TransportParams()
        if params.mode not in ("auto", "always", "never"):
            raise ValueError(f"unknown transport mode {params.mode!r}")
        if seed is None:
            seed = fabric.seed
        self.env = env
        self.fabric = fabric
        self.name = name
        self.params = params
        self.default_segments = default_segments
        #: the NIC endpoint (byte/message counters live here)
        self.endpoint: Endpoint = fabric.register(name)
        self.endpoint.receive = self._receive
        #: where deduplicated messages go, called from the arrival
        #: callback; the owning component assigns its handler
        self.on_message: Callable[[Message], None] = self.endpoint.inbox.put
        #: crash flag: a powered-off component's NIC is dark both ways --
        #: arrivals are discarded unseen and transmissions (retransmit
        #: timers, acks, responses) vanish
        self.powered_off = False
        #: timer-jitter source, deterministic per (run seed, session name)
        self._rng = random.Random(f"{seed}:tp:{name}")
        self._tx: Dict[str, _TxFlow] = {}
        self._rx: Dict[str, _RxFlow] = {}
        if registry is None:
            registry = fabric.registry
        self.registry = registry
        prefix = f"{name}.tp"
        self._m_tx_segments = registry.counter(f"{prefix}.tx_segments")
        self._m_rx_segments = registry.counter(f"{prefix}.rx_segments")
        self._m_retransmits = registry.counter(f"{prefix}.retransmits")
        self._m_duplicates = registry.counter(
            f"{prefix}.duplicates_dropped")
        self._m_acks_tx = registry.counter(f"{prefix}.acks_tx")
        self._m_acks_rx = registry.counter(f"{prefix}.acks_rx")
        self._m_gave_up = registry.counter(f"{prefix}.gave_up")
        self._m_version_drops = registry.counter(f"{prefix}.version_drops")
        self._m_checkpoint_frames = registry.counter(
            f"{prefix}.checkpoint_frames")
        self._m_checkpoint_resumes = registry.counter(
            f"{prefix}.checkpoint_resumes")
        registry.gauge(f"{prefix}.outstanding", fn=self._outstanding)

    @property
    def inbox(self) -> Store:
        """Where a handler-less session queues what it receives."""
        return self.endpoint.inbox

    def _outstanding(self) -> float:
        return float(sum(len(f.outstanding) for f in self._tx.values()))

    # -- sending -------------------------------------------------------------
    def armed_to(self, dst: str) -> bool:
        """Whether sends toward ``dst`` get per-hop reliability."""
        mode = self.params.mode
        if mode == "never":
            return False
        if mode == "always":
            return True
        profile = self.fabric.link_profile(self.name, dst)
        return profile is not None and profile.lossy

    def send(self, dst: str, kind: str, payload: Any, size_bytes: int,
             segments: Optional[int] = None) -> None:
        """Send one message; reliable iff the link toward ``dst`` is
        armed, with transport metadata derived from the payload."""
        if segments is None:
            segments = self.default_segments
        if not self.armed_to(dst):
            self._wire(dst, kind, payload, size_bytes, segments)
            return
        hop_epoch = 0
        flags = 0
        if isinstance(payload, TraversalRequest):
            hop_epoch = payload.node_hops
            # An in-progress RUNNING frame carries resumable traversal
            # state; the initial client submission (no progress yet)
            # restarts identically either way, so it is not one.  MOVED
            # redirects carry the same resumable state (the traversal
            # continues at the segment's new owner), so they checkpoint
            # identically.
            if (payload.status in (RequestStatus.RUNNING,
                                   RequestStatus.MOVED)
                    and (payload.node_hops > 0
                         or payload.iterations_done > 0)):
                flags = TP_FLAG_CHECKPOINT
                self._m_checkpoint_frames.inc()
        flow = self._tx.setdefault(dst, _TxFlow())
        seq = flow.next_seq
        flow.next_seq += 1
        entry = _TxEntry(dst=dst, segment=Segment(
            header=TransportHeader(seq=seq, flags=flags,
                                   hop_epoch=hop_epoch),
            kind=kind, payload=payload, size_bytes=size_bytes,
            segments=segments))
        flow.outstanding[seq] = entry
        self._m_tx_segments.inc()
        self._transmit(entry)
        self._arm(entry, self.params.hop_timeout_ns)

    def _wire(self, dst: str, kind: str, payload: Any, size_bytes: int,
              segments: int) -> None:
        """Fire-and-forget delivery through the fabric."""
        if self.powered_off:
            return
        self.fabric.send(Message(
            kind=kind, src=self.name, dst=dst, size_bytes=size_bytes,
            payload=payload,
        ), segments=segments)

    def _transmit(self, entry: _TxEntry) -> None:
        segment = entry.segment
        self._wire(entry.dst, segment.kind, segment,
                   segment.size_bytes + self.params.header_bytes,
                   segment.segments)

    def _arm(self, entry: _TxEntry, backoff: float) -> None:
        """Arm ``entry``'s retransmission timer ``backoff`` +/-20% out."""
        entry.backoff = backoff
        timer = entry.timer = self.env.timeout(
            backoff * self._rng.uniform(0.8, 1.2))
        timer.callbacks.append(lambda _timer: self._retransmit(entry))

    def _retransmit(self, entry: _TxEntry) -> None:
        """Timer callback: resend the unacked ``entry`` and re-arm with
        doubled backoff, or give up once the budget is spent."""
        if entry.attempts >= self.params.max_hop_retries:
            # Out of per-hop budget: surface the loss to the layer
            # above by silence -- the client's end-to-end retry is
            # the last resort.
            self._tx[entry.dst].outstanding.pop(entry.segment.header.seq)
            self._m_gave_up.inc()
            return
        entry.attempts += 1
        self._m_retransmits.inc()
        if entry.segment.header.is_checkpoint:
            # A retransmitted checkpoint frame *is* the hop-level
            # resume: the traversal continues from hop k's
            # serialized state instead of restarting from init().
            self._m_checkpoint_resumes.inc()
        self._transmit(entry)
        self._arm(entry, min(entry.backoff * 2.0,
                             self.params.hop_backoff_cap_ns))

    def take_over(self, dst: str) -> list:
        """Cancel and return every unacked payload to ``dst``.

        Recovery calls this when ``dst`` is declared dead: instead of
        letting the per-hop timers retry into a black hole (and
        eventually give up into the client's end-to-end timeout), the
        caller re-injects the payloads at the range's new owner.  A
        *permanently* dead destination never acks, so fresh submissions
        are reclaimed too, not only checkpoint frames (the traversal's
        serialized mid-flight state, each counted as a checkpoint
        resume).  Returned in sequence order (the order originally
        sent).
        """
        flow = self._tx.get(dst)
        if flow is None:
            return []
        resumed = []
        for seq in sorted(flow.outstanding):
            entry = flow.outstanding[seq]
            entry.timer.cancel()
            resumed.append(entry.segment.payload)
            if entry.segment.header.is_checkpoint:
                self._m_checkpoint_resumes.inc()
        flow.outstanding.clear()
        return resumed

    # -- receiving -----------------------------------------------------------
    def _receive(self, message: Message) -> None:
        """The endpoint's receive filter (runs in the arrival callback)."""
        if self.powered_off:
            return
        payload = message.payload
        if isinstance(payload, Ack):
            self._handle_ack(message.src, payload)
        elif isinstance(payload, Segment):
            self._handle_data(message, payload)
        else:
            # Unarmed (cut-through) traffic goes straight up.
            self.on_message(message)

    def _handle_ack(self, src: str, ack: Ack) -> None:
        self._m_acks_rx.inc()
        if ack.header.version != TRANSPORT_VERSION:
            self._m_version_drops.inc()
            return
        flow = self._tx.get(src)
        if flow is None:
            return
        entry = flow.outstanding.pop(ack.header.ack, None)
        if entry is not None:
            entry.timer.cancel()

    def _handle_data(self, message: Message, segment: Segment) -> None:
        if segment.header.version != TRANSPORT_VERSION:
            self._m_version_drops.inc()
            return
        self._m_rx_segments.inc()
        # Always ack -- a duplicate means our previous ACK (or the
        # sender's timer) raced a loss, and silence would only provoke
        # more retransmissions.
        self._m_acks_tx.inc()
        self._wire(message.src, TP_ACK_KIND, Ack(header=TransportHeader(
            seq=0, flags=TP_FLAG_ACK, ack=segment.header.seq,
            hop_epoch=segment.header.hop_epoch)),
            self.params.ack_bytes, segment.segments)
        flow = self._rx.setdefault(message.src, _RxFlow())
        seq = segment.header.seq
        if seq <= flow.floor or seq in flow.seen:
            self._m_duplicates.inc()
            return
        flow.seen.add(seq)
        while len(flow.seen) > self.params.dedup_window:
            flow.floor += 1
            flow.seen.discard(flow.floor)
        # Absorb the run of seen seqs contiguous with the floor: the
        # same seqs stay duplicates, and in-order delivery keeps the
        # set empty.
        while flow.floor + 1 in flow.seen:
            flow.floor += 1
            flow.seen.discard(flow.floor)
        self.on_message(Message(
            kind=segment.kind, src=message.src, dst=message.dst,
            size_bytes=segment.size_bytes, payload=segment.payload,
            hops=message.hops))
