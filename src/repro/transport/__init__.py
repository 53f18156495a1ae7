"""Reliable transport: one class, :class:`TransportSession`.

Every component that talks on the fabric -- the pulse client, switch,
and accelerators, and the RPC/cache/AIFM baselines -- sends and receives
through a :class:`~repro.transport.session.TransportSession` instead of
touching its :class:`~repro.sim.network.Endpoint` directly.  The session
registers the endpoint, installs itself as its receive filter, and owns
sequencing, per-hop ACKs, timeout-driven retransmission with capped
exponential backoff + jitter, and duplicate suppression; it understands
traversal frames well enough to stamp hop epochs and account checkpoint
retransmissions (resuming a dropped traversal from hop k instead of
restarting it end-to-end).  A send is *armed* (reliable) when
:class:`~repro.params.TransportParams` says so for that link; unarmed
sends cut through with zero added cost or traffic.  :class:`Segment`
and :class:`Ack` are the two wire records armed traffic travels as.
"""

from repro.transport.session import Ack, Segment, TransportSession

__all__ = [
    "Ack",
    "Segment",
    "TransportSession",
]
