"""Traversal request/response wire format (sections 4.1, 4.2.4, 5).

pulse deliberately uses *one* format for requests and responses: a message
carries the compiled program, cur_ptr, and the scratch pad.  That is what
makes distributed continuation trivial -- when a traversal's next pointer
lives on another memory node, the accelerator emits the very same message
shape and the switch forwards it onward (section 5).  On the wire every
pulse message is a :class:`TraversalBatch`; a lone request is a batch of
one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.isa.program import Program

#: fixed header: request id, status, iteration counter, cur_ptr, checksums
HEADER_BYTES = 64
#: UDP/IP/Ethernet framing around the pulse payload
FRAME_BYTES = 64

#: current reliable-transport wire format revision; receivers drop
#: segments from a different version instead of misparsing them
TRANSPORT_VERSION = 1
#: on-wire size of :class:`TransportHeader` (version/flags 4B, seq 8B,
#: ack 8B, padding 4B)
TRANSPORT_HEADER_BYTES = 24

#: flag bits in :attr:`TransportHeader.flags`
TP_FLAG_ACK = 0x1
#: the segment carries a hop checkpoint: a serialized in-flight
#: traversal (cur_ptr, scratch pad, iteration count) that a
#: retransmission resumes from, instead of restarting end-to-end
TP_FLAG_CHECKPOINT = 0x2


@dataclass(frozen=True)
class TransportHeader:
    """Versioned per-hop reliability header (see ``repro.transport``).

    ``seq`` orders segments per directed (src, dst) flow; ``ack`` names
    the sequence number being acknowledged on ACK segments.
    """

    seq: int
    version: int = TRANSPORT_VERSION
    flags: int = 0
    ack: int = -1

    @property
    def is_checkpoint(self) -> bool:
        return bool(self.flags & TP_FLAG_CHECKPOINT)


class RequestStatus(enum.Enum):
    """Lifecycle of a traversal request."""

    RUNNING = "running"        # in flight; cur_ptr names the next access
    DONE = "done"              # RETURN reached; scratch pad is the answer
    ITER_LIMIT = "iter_limit"  # MAX_ITER hit; client may continue it
    FAULT = "fault"            # translation/protection/execution fault
    RETRY = "retry"            # admission queue full; resubmit after backoff


@dataclass
class TraversalRequest:
    """One pointer-traversal request (or its response -- same format)."""

    request_id: Tuple[int, int]      # (client id, per-client counter)
    program: Program
    cur_ptr: int
    scratch: bytes
    status: RequestStatus = RequestStatus.RUNNING
    iterations_done: int = 0
    fault_reason: str = ""
    #: tenant for multi-tenant scheduling (defaults to the client id;
    #: see repro.core.scheduling and the paper's Supp B)
    tenant: int = 0
    #: inter-memory-node continuations this traversal has made (section 5)
    node_hops: int = 0
    #: the traversal's most recent load address (0 = none yet); carried
    #: across inter-node continuations so the hotness tracker can sample
    #: *successor edges* spanning a reroute -- exactly the cut edges the
    #: affinity rebalancer exists to remove.  Metadata for the placement
    #: layer: it rides the existing header words, so ``wire_bytes()`` is
    #: unchanged and no timing shifts.
    last_load_vaddr: int = 0
    #: whether this message carries the full program or just its handle.
    #: The offload engine deploys each compiled program once; subsequent
    #: requests (and all responses/continuations) reference it by a
    #: 16-byte handle, keeping steady-state messages small -- Fig 6's
    #: sub-4% network utilization is impossible if every packet ships
    #: the unrolled kernel.
    code_on_wire: bool = False
    #: the 16-byte content digest naming the deployed program
    #: (:meth:`~repro.isa.program.Program.digest`); empty only for
    #: hand-built test messages
    code_handle: bytes = b""

    #: wire size of a program handle (the program's content digest)
    CODE_HANDLE_BYTES = 16

    def wire_bytes(self) -> int:
        """On-wire size: framing + header + code + cur_ptr + scratch."""
        code = (self.program.wire_bytes() if self.code_on_wire
                else self.CODE_HANDLE_BYTES)
        return (FRAME_BYTES + HEADER_BYTES + code + 8
                + len(self.scratch))

    def advanced(self, cur_ptr: int, scratch: bytes, iterations: int,
                 status: RequestStatus, fault_reason: str = "",
                 last_load_vaddr: Optional[int] = None) -> "TraversalRequest":
        """A copy with updated traversal state (for the response)."""
        return replace(
            self,
            cur_ptr=cur_ptr,
            scratch=scratch,
            iterations_done=self.iterations_done + iterations,
            status=status,
            fault_reason=fault_reason,
            code_on_wire=False,
            last_load_vaddr=(self.last_load_vaddr
                             if last_load_vaddr is None
                             else last_load_vaddr),
        )


#: fabric endpoint name of the rack's one programmable switch
SWITCH = "switch"

#: fabric message kind for split-index direct reads (the one-RTT fast
#: path); distinct from ``"pulse"`` so the switch never tries to route
#: these frames -- they travel client <-> memory node directly
DIRECT_READ_KIND = "direct_read"

#: fabric message kind for redo-log replication traffic; like direct
#: reads it travels memory node <-> memory node without switch routing
DURABILITY_KIND = "durability"


@dataclass(frozen=True)
class ReplicateRecords:
    """One flush's redo-log records shipped to a replica peer.

    ``src_node`` names the flushing writer (where the ack returns);
    ``flush_id`` identifies the group commit so the writer can match acks
    to the flush they cover.  ``records`` are opaque to the transport --
    each exposes a ``wire_bytes`` size (header + payload) charged to the
    fabric like any other message.
    """

    src_node: int
    flush_id: int
    records: tuple

    def wire_bytes(self) -> int:
        return (FRAME_BYTES + HEADER_BYTES
                + sum(record.wire_bytes for record in self.records))


@dataclass(frozen=True)
class ReplicateAck:
    """A replica peer's acknowledgment of one :class:`ReplicateRecords`.

    ``src_node`` is the *acking* node; the home commits the flush once
    every live target has acked (or died).
    """

    src_node: int
    flush_id: int

    def wire_bytes(self) -> int:
        # framing + header + node/flush-id words
        return FRAME_BYTES + HEADER_BYTES + 16


@dataclass
class DirectReadRequest:
    """A one-RTT read issued from a client's split-index directory.

    The client believes ``vaddr`` (on the addressed node) holds the
    record for some key; ``epoch`` is the :class:`~repro.placement.
    rangemap.PlacementMap` version the directory entry was learned
    under.  The serving node validates the address against its *live*
    translation table and placement before touching DRAM -- a migrated
    or unmapped address NACKs, never returns stale bytes.
    """

    request_id: Tuple[str, int]      # (client name, per-client counter)
    vaddr: int
    size: int
    epoch: int
    #: fabric endpoint the reply goes back to (no switch traversal)
    reply_to: str

    def wire_bytes(self) -> int:
        # framing + header + vaddr/size/epoch words
        return FRAME_BYTES + HEADER_BYTES + 24


@dataclass
class DirectReadReply:
    """The memory node's answer to a :class:`DirectReadRequest`.

    ``map_version`` carries the node's view of the live placement-map
    version so the client can repair (or invalidate) its directory
    entry; on a NACK (``ok=False``: the segment migrated away, or the
    address is unmapped or unreadable here) the client falls back to the
    normal offloaded traversal.
    """

    request_id: Tuple[str, int]
    vaddr: int
    ok: bool
    data: bytes = b""
    map_version: int = 0

    def wire_bytes(self) -> int:
        return FRAME_BYTES + HEADER_BYTES + 24 + len(self.data)


@dataclass
class TraversalBatch:
    """A pulse frame: the traversal requests one network message carries.

    Every pulse message is one -- a doorbell flush, the switch's forwards
    and the accelerator's replies -- and a lone request is a batch of
    one, on the wire exactly its request's size.  The client's doorbell
    batcher packs up to ``batch_size`` requests behind a single frame,
    so per-message costs (Ethernet framing, the CPU node's DPDK stack
    span, the accelerator's netstack parse) are paid once per *frame*
    instead of once per *request*.  The switch splits a frame by owning
    memory node; the accelerator unpacks it into its admission queues.
    Replies leave one request per frame -- requests in one frame
    complete at different times.
    """

    requests: List[TraversalRequest]

    def __post_init__(self) -> None:
        if not self.requests:
            raise ValueError("a traversal batch needs at least one request")

    def wire_bytes(self) -> int:
        """On-wire size: one shared frame + each request sans framing.

        A loop, not a generator: every reply and forward is sized here,
        and a generator would cost two more calls per frame."""
        size = FRAME_BYTES
        for request in self.requests:
            size += request.wire_bytes() - FRAME_BYTES
        return size
