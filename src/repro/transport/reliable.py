"""Transport layer 2: reliable delivery over lossy links.

Per directed flow (this endpoint -> one destination) the sender assigns
monotonically increasing sequence numbers, keeps every unacknowledged
segment in an outstanding table, and runs a retransmission timer per
segment: capped exponential backoff with +/-20% jitter so synchronized
losses do not retransmit in lockstep.  The receiver ACKs every data
segment -- including duplicates, whose original ACK may itself have been
lost -- and suppresses duplicates with a per-source (floor, seen-set)
window before anything reaches the component above.

Arming is per-link: in ``TransportParams.mode="auto"`` a send is
reliable exactly when the link toward its destination has a
:class:`~repro.sim.network.LinkProfile` (loss or jitter injected through
the channel interface).  Unarmed sends bypass this layer entirely -- no
header bytes, no ACK traffic, no extra latency -- so a lossless fabric
behaves exactly as it did before the transport stack existed.  In
``mode="never"`` nothing arms even on a lossy link, which leaves the
client's end-to-end retry as the only recovery and so exercises it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set

from repro.core.messages import (TP_FLAG_ACK, TP_FLAG_CHECKPOINT,
                                 TRANSPORT_VERSION, TransportHeader)
from repro.obs.metrics import MetricsRegistry
from repro.params import TransportParams
from repro.sim.engine import Environment
from repro.sim.network import Message
from repro.sim.resources import Store
from repro.transport.channel import Channel

#: message kind of standalone ACK segments (never seen by components;
#: the demux loop consumes them below the session inbox)
TP_ACK_KIND = "tp.ack"


@dataclass
class Segment:
    """An armed data segment: transport header + the original message."""

    header: TransportHeader
    kind: str
    payload: Any
    size_bytes: int
    segments: int = 2
    extra_latency_ns: float = 0.0


@dataclass(frozen=True)
class Ack:
    """A standalone acknowledgment for one data segment."""

    header: TransportHeader


@dataclass
class _TxEntry:
    segment: Segment
    dst: str
    acked: bool = False
    attempts: int = 0


@dataclass
class _TxFlow:
    next_seq: int = 1
    outstanding: Dict[int, _TxEntry] = field(default_factory=dict)


@dataclass
class _RxFlow:
    #: every sequence number <= floor has been seen (window compaction)
    floor: int = 0
    seen: Set[int] = field(default_factory=set)


class ReliableChannel:
    """Sequencing, ack/retransmit, and dedup over one channel."""

    def __init__(self, env: Environment, channel: Channel,
                 params: TransportParams, rng: random.Random,
                 registry: Optional[MetricsRegistry] = None,
                 default_segments: int = 2):
        if params.mode not in ("auto", "always", "never"):
            raise ValueError(f"unknown transport mode {params.mode!r}")
        self.env = env
        self.channel = channel
        self.params = params
        self.default_segments = default_segments
        self._rng = rng
        #: messages surfaced to the component above, post-dedup
        self.inbox: Store = Store(env)
        self._tx: Dict[str, _TxFlow] = {}
        self._rx: Dict[str, _RxFlow] = {}
        if registry is None:
            registry = channel.registry
        self.registry = registry
        prefix = f"{channel.name}.tp"
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
        env.process(self._demux_loop())

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
        profile = self.channel.link_profile(dst)
        return profile is not None and profile.lossy

    def send(self, dst: str, kind: str, payload: Any, size_bytes: int,
             segments: Optional[int] = None, extra_latency_ns: float = 0.0,
             hop_epoch: int = 0, checkpoint: bool = False) -> None:
        """Send one message; reliable iff the link toward ``dst`` is armed."""
        wire_segments = (segments if segments is not None
                         else self.default_segments)
        if not self.armed_to(dst):
            self.channel.send(Message(
                kind=kind, src=self.channel.name, dst=dst,
                size_bytes=size_bytes, payload=payload,
            ), segments=wire_segments, extra_latency_ns=extra_latency_ns)
            return
        flow = self._tx.setdefault(dst, _TxFlow())
        seq = flow.next_seq
        flow.next_seq += 1
        flags = TP_FLAG_CHECKPOINT if checkpoint else 0
        segment = Segment(
            header=TransportHeader(seq=seq, flags=flags,
                                   hop_epoch=hop_epoch),
            kind=kind, payload=payload, size_bytes=size_bytes,
            segments=wire_segments, extra_latency_ns=extra_latency_ns)
        entry = _TxEntry(segment=segment, dst=dst)
        flow.outstanding[seq] = entry
        self._m_tx_segments.inc()
        if checkpoint:
            self._m_checkpoint_frames.inc()
        self._transmit(entry)
        self.env.process(self._retransmit_loop(flow, seq, entry))

    def _transmit(self, entry: _TxEntry) -> None:
        segment = entry.segment
        self.channel.send(Message(
            kind=segment.kind, src=self.channel.name, dst=entry.dst,
            size_bytes=segment.size_bytes + self.params.header_bytes,
            payload=segment,
        ), segments=segment.segments,
            extra_latency_ns=segment.extra_latency_ns)

    def _retransmit_loop(self, flow: _TxFlow, seq: int, entry: _TxEntry):
        """Process: retransmit ``seq`` until acked or out of budget."""
        timeout = self.params.hop_timeout_ns
        while True:
            yield self.env.timeout(timeout * self._rng.uniform(0.8, 1.2))
            if entry.acked:
                return
            if entry.attempts >= self.params.max_hop_retries:
                # Out of per-hop budget: surface the loss to the layer
                # above by silence -- the client's end-to-end retry is
                # the last resort.
                flow.outstanding.pop(seq, None)
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
            timeout = min(timeout * 2.0, self.params.hop_backoff_cap_ns)

    def take_over(self, dst: str, include_all: bool = False) -> list:
        """Cancel and return every unacked *checkpointed* payload to ``dst``.

        Recovery calls this when ``dst`` is declared dead: checkpoint
        frames carry the traversal's serialized mid-flight state, so
        instead of letting the per-hop timers retry into a black hole
        (and eventually give up into the client's end-to-end timeout),
        the caller re-injects the payloads at the range's new owner.
        Non-checkpoint frames keep their timers and take the normal
        give-up path -- they carry no resumable state -- unless
        ``include_all`` is set: a *permanently* dead destination never
        acks, so even fresh submissions are reclaimed and re-resolved
        instead of burning their whole retry budget into the black
        hole.  Returned in sequence order (the order originally sent).
        """
        flow = self._tx.get(dst)
        if flow is None:
            return []
        resumed = []
        for seq in sorted(flow.outstanding):
            entry = flow.outstanding[seq]
            if include_all or entry.segment.header.is_checkpoint:
                entry.acked = True  # parks the retransmit loop
                del flow.outstanding[seq]
                resumed.append(entry.segment.payload)
                if entry.segment.header.is_checkpoint:
                    self._m_checkpoint_resumes.inc()
        return resumed

    # -- receiving -----------------------------------------------------------
    def _demux_loop(self):
        while True:
            message = yield self.channel.endpoint.inbox.get()
            payload = message.payload
            if isinstance(payload, Ack):
                self._handle_ack(message.src, payload)
            elif isinstance(payload, Segment):
                self._handle_data(message, payload)
            else:
                # Unarmed (cut-through) traffic goes straight up.
                self.inbox.put(message)

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
            entry.acked = True

    def _handle_data(self, message: Message, segment: Segment) -> None:
        if segment.header.version != TRANSPORT_VERSION:
            self._m_version_drops.inc()
            return
        self._m_rx_segments.inc()
        # Always ack -- a duplicate means our previous ACK (or the
        # sender's timer) raced a loss, and silence would only provoke
        # more retransmissions.
        self._send_ack(message.src, segment)
        flow = self._rx.setdefault(message.src, _RxFlow())
        seq = segment.header.seq
        if seq <= flow.floor or seq in flow.seen:
            self._m_duplicates.inc()
            return
        flow.seen.add(seq)
        while len(flow.seen) > self.params.dedup_window:
            flow.floor += 1
            flow.seen.discard(flow.floor)
        self.inbox.put(Message(
            kind=segment.kind, src=message.src, dst=message.dst,
            size_bytes=segment.size_bytes, payload=segment.payload,
            hops=message.hops))

    def _send_ack(self, dst: str, segment: Segment) -> None:
        self._m_acks_tx.inc()
        ack = Ack(header=TransportHeader(
            seq=0, flags=TP_FLAG_ACK, ack=segment.header.seq,
            hop_epoch=segment.header.hop_epoch))
        self.channel.send(Message(
            kind=TP_ACK_KIND, src=self.channel.name, dst=dst,
            size_bytes=self.params.ack_bytes, payload=ack,
        ), segments=segment.segments)
