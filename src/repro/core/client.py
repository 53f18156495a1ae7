"""The CPU-node client: issues traversal requests and handles responses.

Implements the CPU-node side of section 4.1: DPDK-style userspace
networking (a per-message stack cost on a small pool of stack cores),
request ids, retransmission timers, ITER_LIMIT continuations, and the
local fallback path for programs the offload engine rejects (those run at
the CPU node with plain remote reads -- each iteration pays a full network
round trip, which is exactly why offloading wins).

The submission path is asynchronous: :meth:`PulseClient.submit` returns a
:class:`PendingTraversal` immediately and a :class:`DoorbellBatcher`
coalesces outstanding requests into multi-request messages, so one DPDK
stack span (and one Ethernet frame) is amortized over up to ``batch_size``
requests.  :meth:`PulseClient.traverse` is a thin submit-and-wait wrapper
kept for closed-loop callers.  Admission-control NACKs
(:class:`~repro.core.messages.RequestStatus` ``RETRY``) are handled here
with capped exponential backoff.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.core.accelerator import PULSE_KIND
from repro.core.iterator import PulseIterator, TraversalResult, walk
from repro.core.messages import (DIRECT_READ_KIND, DirectReadRequest,
                                 RequestStatus, TraversalBatch,
                                 TraversalRequest)
from repro.core.offload import OffloadEngine
from repro.isa.interpreter import IteratorMachine
from repro.mem.node import GlobalMemory
from repro.obs.metrics import MetricsRegistry
from repro.params import SystemParams
from repro.sim.engine import Environment, Event, Process
from repro.sim.network import Fabric, Message
from repro.sim.resources import Resource
from repro.transport import TransportSession

#: give up after this many retransmissions of one request
MAX_RETRIES = 16

#: give up after this many consecutive admission-control NACKs
MAX_ADMISSION_RETRIES = 32


class RequestLost(Exception):
    """All retransmission (or admission retry) attempts exhausted."""


def result_recorder(registry: MetricsRegistry, client: str):
    """The CPU node ``client``'s account of each finished traversal.

    Counts it in ``<client>.client.traversals`` (and ``.faults``) and
    records its latency in ``request.latency_ns`` -- one shared name
    across all systems, so a single ``snapshot()`` compares them.
    """
    traversals = registry.counter(f"{client}.client.traversals")
    faults = registry.counter(f"{client}.client.faults")
    latency = registry.histogram("request.latency_ns")

    def record(result: TraversalResult) -> None:
        traversals.inc()
        if not result.ok:
            faults.inc()
        latency.record(result.latency_ns)
    return record


class PendingTraversal:
    """Future-like handle for a submitted traversal.

    Wraps the simulation process running the traversal; the process event
    fires with the :class:`~repro.core.iterator.TraversalResult` when the
    traversal completes.  Any number of processes may :meth:`wait` on the
    same handle.
    """

    def __init__(self, env: Environment, process: Process):
        self.env = env
        self._process = process

    @property
    def done(self) -> bool:
        """True once the traversal has completed (or failed)."""
        return self._process.triggered

    @property
    def result(self) -> TraversalResult:
        """The result, once done; raises if awaited too early or failed."""
        if not self._process.triggered:
            raise RuntimeError("traversal has not completed yet; "
                               "yield from wait() inside a process")
        if not self._process.ok:
            raise self._process.value
        return self._process.value

    def wait(self):
        """Process: block until completion; returns the TraversalResult.

        Re-raises :class:`RequestLost` if every delivery attempt failed.
        """
        result = yield self._process
        return result


class DoorbellBatcher:
    """Coalesces requests into multi-request messages (doorbell style).

    Requests accumulate in a pending list; a batch is flushed when it
    reaches ``batch_size`` or when the ``flush_ns`` timer rings with a
    partial batch (an empty ring is a no-op).  Each flush pays the DPDK
    stack span *once*, which is the per-message cost the batching
    amortizes.  ``batch_size=1`` degenerates to the unbatched behaviour:
    every request is flushed inline as a plain request message.
    """

    def __init__(self, client: "PulseClient", batch_size: int = 1,
                 flush_ns: Optional[float] = None):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.client = client
        self.env = client.env
        self.batch_size = batch_size
        self.flush_ns = (flush_ns if flush_ns is not None
                         else client.params.network.doorbell_flush_ns)
        self._pending: List[TraversalRequest] = []
        self._timer_armed = False
        registry = client.registry
        prefix = f"{client.name}.client"
        #: requests per flushed batch -- the amortization factor
        self._m_occupancy = registry.histogram(f"{prefix}.batch_occupancy")
        self._m_flushes = registry.counter(f"{prefix}.batch_flushes")
        self._m_timer_flushes = registry.counter(
            f"{prefix}.batch_timer_flushes")
        self._m_empty_flushes = registry.counter(
            f"{prefix}.batch_empty_flushes")
        registry.gauge(f"{prefix}.batch_pending",
                       fn=lambda: float(len(self._pending)))

    def enqueue(self, request: TraversalRequest):
        """Process: add one request; may flush inline when the batch fills."""
        self._pending.append(request)
        if len(self._pending) >= self.batch_size:
            yield from self.flush()
        elif not self._timer_armed:
            self._timer_armed = True
            self.env.process(self._flush_timer())

    def _flush_timer(self):
        yield self.env.timeout(self.flush_ns)
        self._timer_armed = False
        if self._pending:
            self._m_timer_flushes.inc()
            yield from self.flush()
        else:
            # A size-triggered flush already drained the batch.
            self._m_empty_flushes.inc()

    def flush(self):
        """Process: send whatever is pending as one message."""
        if not self._pending:
            self._m_empty_flushes.inc()
            return
        batch, self._pending = self._pending, []
        self._m_flushes.inc()
        self._m_occupancy.record(len(batch))
        client = self.client
        # One doorbell write / stack span covers the whole batch.
        yield client.stack_unit.hold(
            client.params.network.dpdk_stack_ns)
        if len(batch) == 1:
            payload: object = batch[0]
            size = batch[0].wire_bytes()
        else:
            payload = TraversalBatch(batch)
            size = payload.wire_bytes()
        client.session.send(client.switch_name, PULSE_KIND, payload,
                            size, segments=1)


class PulseClient:
    """One CPU node driving traversals through the pulse rack."""

    def __init__(self, env: Environment, fabric: Fabric,
                 params: SystemParams, engine: OffloadEngine,
                 memory: GlobalMemory, name: str = "client0",
                 switch_name: str = "switch", stack_cores: int = 8,
                 batch_size: int = 1, flush_ns: Optional[float] = None,
                 registry: Optional[MetricsRegistry] = None,
                 index=None):
        self.env = env
        self.fabric = fabric
        self.params = params
        self.engine = engine
        self.memory = memory
        self.name = name
        self.switch_name = switch_name
        #: the reliable-transport stack owns the endpoint registration;
        #: all sends/receives go through it (per-hop ack/retransmit arms
        #: automatically on links with injected loss)
        self.session = TransportSession(env, fabric, name,
                                        params=params.transport,
                                        registry=registry,
                                        default_segments=1)
        #: DPDK stack cores: every message send/receive occupies one
        self.stack_unit = Resource(env, capacity=stack_cores)
        self._waiters: Dict[tuple, Event] = {}
        #: jitter source for retry backoff (deterministic per client name)
        self._rng = random.Random(name)
        if registry is None:
            registry = fabric.registry
        self.registry = registry
        self._events = registry.events
        prefix = f"{name}.client"
        self._m_retransmissions = registry.counter(
            f"{prefix}.retransmissions")
        self._m_requests_lost = registry.counter(f"{prefix}.requests_lost")
        self._m_duplicates = registry.counter(
            f"{prefix}.duplicates_dropped")
        self._m_admission_retries = registry.counter(
            f"{prefix}.admission_retries")
        self._in_flight = 0
        registry.gauge(f"{prefix}.in_flight",
                       fn=lambda: float(self._in_flight))
        self._finish = result_recorder(registry, name)
        #: optional client-resident split index
        #: (:class:`~repro.index.SplitIndexDirectory`); when attached,
        #: indexable point lookups try the one-RTT direct-read fast path
        #: before falling back to the offloaded traversal
        self.index = index
        self._dr_counter = 0
        self.batcher = DoorbellBatcher(self, batch_size=batch_size,
                                       flush_ns=flush_ns)
        self.session.on_message = self._on_message

    # -- receive path ---------------------------------------------------------
    def _on_message(self, message: Message) -> None:
        """One DPDK stack span, then the response wakes its waiter."""
        self.stack_unit.hold(
            self.params.network.dpdk_stack_ns).callbacks.append(
                lambda _hold: self._deliver(message))

    def _deliver(self, message: Message) -> None:
        response: TraversalRequest = message.payload
        waiter = self._waiters.pop(response.request_id, None)
        if waiter is not None:
            waiter.succeed(response)
        else:
            # Late duplicates (after a retransmission) find no waiter and
            # are dropped, like any UDP duplicate.
            self._m_duplicates.inc()

    # -- submit path ------------------------------------------------------------
    def submit(self, iterator: PulseIterator,
               *args) -> PendingTraversal:
        """Issue one traversal asynchronously; returns immediately.

        The traversal runs as its own process: through the doorbell
        batcher and the offloaded rack path, or through the local
        fallback for rejected programs.  Wait for the result with
        ``yield from pending.wait()`` inside a process, or read
        ``pending.result`` after the simulation has run it to completion.
        """
        process = self.env.process(self._run_traversal(iterator, args))
        return PendingTraversal(self.env, process)

    def submit_many(self, requests) -> list:
        """Issue a burst of traversals in one call (the batch seam).

        Each ``(iterator, args)`` pair becomes its own traversal
        process, all created at the same simulated instant -- so the
        burst coalesces in this client's doorbell batcher into
        multi-request frames, which the accelerator steps as lockstep
        lane groups.  Returns one :class:`PendingTraversal` per
        request, in order.
        """
        return [self.submit(iterator, *args)
                for iterator, args in requests]

    def traverse(self, iterator: PulseIterator, *args):
        """Process: run one traversal; returns a TraversalResult.

        Thin submit-and-wait wrapper over :meth:`submit`, kept as the
        closed-loop interface the workload driver uses.
        """
        pending = self.submit(iterator, *args)
        result = yield from pending.wait()
        return result

    def _run_traversal(self, iterator: PulseIterator, args):
        start = self.env.now
        self._in_flight += 1
        try:
            result = yield from self._traversal_body(iterator, args, start)
        finally:
            self._in_flight -= 1
        self._finish(result)
        return result

    def _traversal_body(self, iterator: PulseIterator, args, start: float):
        decision = self.engine.decide(iterator.program)
        if not decision.offload:
            result = yield from self._execute_local(iterator, args, start)
            return result

        if self.index is not None and iterator.indexable:
            result = yield from self._try_direct_read(iterator, args,
                                                      start)
            if result is not None:
                return result

        request = self.engine.make_request(iterator, *args,
                                           issued_at_ns=start)
        if self._events is not None:
            self._events.record(self.name, "issue", request.request_id,
                                program=request.program.name)
        net = self.params.network
        backoff = net.retry_backoff_ns
        retries = 0
        response = yield from self._send_and_wait(request)
        while response.status in (RequestStatus.ITER_LIMIT,
                                  RequestStatus.RUNNING,
                                  RequestStatus.RETRY):
            # ITER_LIMIT: section 3.1 continuation after the accelerator's
            # per-request budget.  RUNNING: only in pulse-ACC mode, where
            # inter-node hops bounce through this CPU node (Fig 8).
            # RETRY: the accelerator's admission queue was full; back off
            # exponentially (with jitter, capped) and resubmit from the
            # state the NACK carried -- a rerouted continuation may have
            # made progress before being NACKed at the next node.
            # MOVED never gets here: the switch re-routes a migration
            # redirect to the live owner or FAULTs it.
            if response.status is RequestStatus.RETRY:
                retries += 1
                if retries > MAX_ADMISSION_RETRIES:
                    self._m_requests_lost.inc()
                    raise RequestLost(
                        f"request {request.request_id} rejected by "
                        f"admission control {retries} times")
                self._m_admission_retries.inc()
                if self._events is not None:
                    self._events.record(self.name, "admission_retry",
                                        request.request_id, attempt=retries)
                yield self.env.timeout(
                    backoff * self._rng.uniform(0.5, 1.5))
                backoff = min(backoff * 2.0, net.retry_backoff_cap_ns)
            else:
                backoff = net.retry_backoff_ns
                retries = 0
            request = self.engine.continuation(response, self.env.now)
            response = yield from self._send_and_wait(request)

        result = TraversalResult.from_response(iterator, response,
                                               self.env.now - start)
        if self._events is not None:
            self._events.record(self.name, "complete", response.request_id,
                                status=response.status.value,
                                iterations=response.iterations_done,
                                hops=response.node_hops)
        if (self.index is not None and iterator.indexable
                and response.status is RequestStatus.DONE):
            self._learn_from_traversal(iterator, args, response)
        return result

    # -- split-index fast path ------------------------------------------------
    def _learn_from_traversal(self, iterator: PulseIterator, args,
                              response: TraversalRequest) -> None:
        """Populate the directory from a completed offloaded lookup."""
        vaddr = iterator.index_locate(response)
        if vaddr is None:
            return  # negative lookup: nothing to cache
        placement = self.memory.placement
        owner = placement.node_of(vaddr)
        if owner is not None:
            self.index.learn(iterator.index_key(*args), owner, vaddr,
                             placement.version)

    def _try_direct_read(self, iterator: PulseIterator, args,
                         start: float):
        """Attempt the one-RTT fast path; None means fall back.

        Any failure -- NACK from the node (segment migrated away or
        address unmapped), reply timeout, or bytes that no longer decode
        to the key (e.g. a B-tree leaf split) -- invalidates the
        directory entry and returns ``None`` so the caller runs the
        always-correct offloaded traversal, which re-learns the entry.
        """
        key = iterator.index_key(*args)
        entry = self.index.lookup(key)
        if entry is None:
            return None
        offset, size = iterator.index_window()
        self._dr_counter += 1
        rid = ("dr", self.name, self._dr_counter)
        request = DirectReadRequest(
            request_id=rid, vaddr=entry.vaddr + offset, size=size,
            epoch=entry.epoch, reply_to=self.name, issued_at_ns=start)
        waiter = self.env.event()
        self._waiters[rid] = waiter
        yield self.stack_unit.hold(self.params.network.dpdk_stack_ns)
        # Straight to the owning node: one RTT, no switch traversal.
        self.session.send(f"mem{entry.node_id}", DIRECT_READ_KIND,
                          request, request.wire_bytes(), segments=2)
        timer = self.env.timeout(self.params.network.retransmit_timeout_ns)
        yield self.env.any_of([waiter, timer])
        if not waiter.processed:
            # No reply inside the window; don't retry the hint, repair
            # it through the traversal path instead.
            self._waiters.pop(rid, None)
            self.index.timeouts.inc()
            self.index.invalidate(key)
            return None
        timer.cancel()
        reply = waiter.value
        if not reply.ok:
            if self._events is not None:
                self._events.record(self.name, "direct_read_nack", rid,
                                    reason=reply.nack_reason)
            self.index.stale_nacks.inc()
            self.index.invalidate(key)
            return None
        matched, value = iterator.index_decode(key, reply.data)
        if not matched:
            # The structure mutated under the cached address (the bytes
            # are live but no longer describe this key).
            self.index.decode_misses.inc()
            self.index.invalidate(key)
            return None
        if reply.map_version != entry.epoch:
            # The node still owns the address under a newer placement
            # epoch; refresh the entry in place.
            self.index.learn(key, entry.node_id, entry.vaddr,
                             reply.map_version)
        if self._events is not None:
            self._events.record(self.name, "direct_read_hit", rid,
                                vaddr=hex(entry.vaddr))
        return TraversalResult(
            value=value, iterations=1,
            latency_ns=self.env.now - start, offloaded=True, hops=0)

    def _send_and_wait(self, request: TraversalRequest):
        """Send and await a response, retrying end-to-end on timeout.

        With the reliable transport armed (lossy links), drops are
        recovered per hop from the last checkpoint, so this end-to-end
        timer is the *last resort* -- it fires only when a hop exhausts
        its own retransmission budget.  On a lossless fabric (or with
        ``TransportParams.mode="never"``) it is the only recovery.
        """
        waiter = self.env.event()
        self._waiters[request.request_id] = waiter
        attempts = 0
        while True:
            yield from self.batcher.enqueue(request)
            timer = self.env.timeout(
                self.params.network.retransmit_timeout_ns)
            yield self.env.any_of([waiter, timer])
            if waiter.processed:
                timer.cancel()
                return waiter.value
            attempts += 1
            if attempts > MAX_RETRIES:
                # The budget is exhausted: give up *without* sending (or
                # counting) another copy -- only transmitted copies count
                # as retransmissions.
                self._waiters.pop(request.request_id, None)
                self._m_requests_lost.inc()
                raise RequestLost(
                    f"request {request.request_id} lost after "
                    f"{attempts} attempts")
            self._m_retransmissions.inc()
            if self._events is not None:
                self._events.record(self.name, "retransmit",
                                    request.request_id, attempt=attempts)
            request.attempt = attempts

    # -- local fallback -----------------------------------------------------------
    def _execute_local(self, iterator: PulseIterator, args, start: float):
        """Run a rejected program at the CPU node with remote reads.

        Every iteration's aggregated load becomes a one-sided remote read
        (client stack + round trip + accelerator netstack and memory
        pipeline); the logic runs at CPU speed.  No caching here -- the
        Cache-based baseline models that separately.
        """
        net = self.params.network
        acc = self.params.accelerator
        instruction_ns = self.params.cpu.instruction_ns()
        window_size = iterator.program.load_window[1]
        # Remote read round trip for one iteration's window.
        round_trip = (4 * net.segment_ns
                      + 2 * net.switch_process_ns
                      + 2 * acc.netstack_ns
                      + acc.memory_access_ns(window_size)
                      + window_size / net.link_bytes_per_ns)

        def fetch(_addr):
            yield self.stack_unit.hold(net.dpdk_stack_ns, round_trip)
            yield self.stack_unit.hold(net.dpdk_stack_ns)
            return True

        cur_ptr, scratch = iterator.init(*args)
        machine = IteratorMachine(iterator.program)
        machine.reset(cur_ptr, scratch)
        iterations, fault, _done = yield from walk(
            machine, self.memory.read, self.memory.write, fetch,
            lambda executed: self.env.timeout(executed * instruction_ns),
            budget=acc.max_iterations)
        return TraversalResult(
            value=(None if fault is not None
                   else iterator.finalize(bytes(machine.scratch))),
            iterations=iterations,
            latency_ns=self.env.now - start,
            offloaded=False,
            fault=fault,
        )
