"""The CPU-node offload engine (section 4.1).

Responsibilities, exactly as in the paper:

1. *Translate* iterator code into the pulse ISA -- done by
   :class:`~repro.core.kernel.KernelBuilder`, whose output arrives here as
   a :class:`~repro.isa.program.Program`.
2. *Bound complexity*: statically derive per-iteration compute time t_c
   and memory time t_d, and offload only when t_c <= eta_max * t_d.
   Rejected programs execute at the CPU node with plain remote reads.
3. *Packetize*: wrap the program, initial cur_ptr, and scratch pad into a
   :class:`~repro.core.messages.TraversalRequest` carrying a request id
   (client id + local counter) used for retransmission.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.iterator import PulseIterator
from repro.core.messages import RequestStatus, TraversalRequest
from repro.isa.analysis import ProgramAnalysis, analyze
from repro.isa.program import Program
from repro.params import AcceleratorParams


@dataclass(frozen=True)
class OffloadDecision:
    """The engine's verdict for one program."""

    offload: bool
    analysis: ProgramAnalysis


class OffloadEngine:
    """Per-client compile-and-decide layer."""

    def __init__(self, params: AcceleratorParams, client_id: int = 0):
        self.params = params
        self.client_id = client_id
        self._counter = 0
        self._decisions: Dict[bytes, OffloadDecision] = {}
        #: digests of programs already shipped to the rack's
        #: accelerators; later requests carry only the 16-byte handle.
        #: Keyed by content digest, not id(): id() values are reused
        #: after garbage collection, and two equal programs compiled
        #: separately must share one deployment.
        self._deployed: set = set()

    def decide(self, program: Program) -> OffloadDecision:
        """Analyze (once per program content) and cache the decision."""
        key = program.digest()
        decision = self._decisions.get(key)
        if decision is None:
            analysis = analyze(program, self.params)
            decision = OffloadDecision(offload=analysis.offloadable,
                                       analysis=analysis)
            self._decisions[key] = decision
        return decision

    def next_request_id(self) -> Tuple[int, int]:
        self._counter += 1
        return (self.client_id, self._counter)

    def make_request(self, iterator: PulseIterator,
                     *args) -> TraversalRequest:
        """Run ``init()`` on the CPU node and build the network request."""
        if iterator.program is None:
            raise TypeError(
                f"{type(iterator).__name__} does not define a program")
        cur_ptr, scratch = iterator.init(*args)
        handle = iterator.program.digest()
        first_use = handle not in self._deployed
        self._deployed.add(handle)
        return TraversalRequest(
            request_id=self.next_request_id(),
            program=iterator.program,
            cur_ptr=cur_ptr,
            scratch=bytes(scratch),
            status=RequestStatus.RUNNING,
            code_on_wire=first_use,
            code_handle=handle,
            tenant=self.client_id,
        )

    def continuation(self, response: TraversalRequest) -> TraversalRequest:
        """A follow-up request resuming an ITER_LIMIT'd traversal.

        Three cases produce continuations: ITER_LIMIT (section 3.1 -- the
        accelerator's per-request iteration budget ran out), RUNNING
        responses delivered to the client, which only happens in the
        pulse-ACC configuration where inter-node continuations bounce
        through the CPU node instead of being re-routed in-switch (Fig 8),
        and RETRY NACKs from admission control -- the resubmission must
        resume from the state the NACK carried, because a rerouted
        continuation may have made progress before being rejected.
        """
        if response.status not in (RequestStatus.ITER_LIMIT,
                                   RequestStatus.RUNNING,
                                   RequestStatus.RETRY):
            raise ValueError("continuation only applies to ITER_LIMIT, "
                             "RUNNING, or RETRY responses")
        return TraversalRequest(
            request_id=self.next_request_id(),
            program=response.program,
            cur_ptr=response.cur_ptr,
            scratch=response.scratch,
            status=RequestStatus.RUNNING,
            iterations_done=response.iterations_done,
            node_hops=response.node_hops,
            code_handle=response.code_handle,
            tenant=response.tenant,
        )
