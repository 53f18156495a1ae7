"""RPC and RPC-W baselines: traversal offload to the memory-node CPU.

Represents the eRPC/DPDK class of systems (section 7): the client ships
the same compiled kernel, a worker on the memory node's CPU executes it
against local DRAM, and the result returns in one round trip.  RPC-W
(``wimpy=True``) emulates SmartNIC ARM-class cores by dropping the clock
to 1.0 GHz, exactly the paper's intel_pstate downscaling.

Distributed traversals: CPUs at one node cannot follow a pointer into
another node's DRAM; when the traversal leaves the node, the worker
returns a RUNNING response and the *client* re-issues the request to the
owning node (the extra round trip + client software that pulse's
in-switch re-routing removes; section 5, Fig 8's discussion).

Worker count defaults to the minimum saturating memory bandwidth
(section 7's energy-fairness rule).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

from repro.baselines.common import make_session, workers_to_saturate
from repro.core.client import result_recorder
from repro.core.cluster import Rack
from repro.core.iterator import PulseIterator, TraversalResult, walk
from repro.core.messages import RequestStatus, TraversalRequest
from repro.core.workspace import MachinePool
from repro.isa.instructions import ExecutionFault
from repro.mem.translation import PERM_READ
from repro.sim.network import Message
from repro.sim.resources import Resource

RPC_KIND = "rpc"


class _RpcServer:
    """One memory node's RPC service."""

    def __init__(self, system: "RpcSystem", node, workers: int):
        self.system = system
        self.env = system.env
        self.node = node
        self.session = make_session(system, node.name)
        self.workers = Resource(self.env, capacity=workers)
        #: serialized DRAM bandwidth share (the RDT cap of section 7)
        self.bandwidth_gate = Resource(self.env, capacity=1)
        #: eRPC is run-to-completion: each worker core handles its own
        #: rx/tx, so stack capacity scales with the worker pool
        self.stack = Resource(self.env, capacity=workers)
        registry = system.registry
        prefix = f"{node.name}.rpc"
        self._m_requests = registry.counter(f"{prefix}.requests")
        self._m_iterations = registry.counter(f"{prefix}.iterations")
        self._m_bytes = registry.counter(
            f"{node.name}.{system.served_bytes}")
        self._m_busy = registry.counter(f"{prefix}.busy_ns")
        # The worker cores reuse machine frames across requests, one
        # free frame per concurrent worker at most.
        self.machines = MachinePool(
            capacity=workers,
            reused=registry.counter(f"{prefix}.workspace.reused"),
            allocated=registry.counter(f"{prefix}.workspace.allocated"))
        self.session.on_message = self._on_message

    def _on_message(self, message: Message) -> None:
        self.env.process(self._handle(message))

    def _handle(self, message: Message):
        system = self.system
        net = system.params.network
        request: TraversalRequest = message.payload

        yield self.stack.hold(net.dpdk_stack_ns)
        grant = self.workers.request()
        yield grant
        started = self.env.now
        self._m_requests.inc()
        try:
            response = yield from self._execute(request)
        finally:
            self._m_busy.inc(self.env.now - started)
            self.workers.release(grant)
        yield self.stack.hold(net.dpdk_stack_ns)
        self.session.send(message.src, RPC_KIND, response,
                          response.wire_bytes())

    def _execute(self, request: TraversalRequest):
        machine = self.machines.acquire(request.program)
        try:
            response = yield from self._run_request(request, machine)
            return response
        finally:
            self.machines.release(machine)

    def _run_request(self, request: TraversalRequest, machine):
        """Walk ``request`` on this node's CPU until it ends or leaves.

        ``fetch`` looks the window up in the node's TCAM and holds the
        DRAM bandwidth gate; the read goes through the entry it found.
        A window outside the TCAM ends the walk: a pointer another node
        owns is RUNNING there (the client continues it), anything else
        is an invalid pointer.
        """
        system = self.system
        cpu = system.cpu
        bw = system.params.memory.bandwidth_bytes_per_ns
        instruction_ns = cpu.instruction_ns()
        node = self.node
        memory = node.memory
        window_size = request.program.load_window[1]
        entry = missed = None

        def fetch(addr):
            nonlocal entry, missed
            entry = node.table.lookup(addr, window_size)
            if entry is None:
                missed = addr
                return False
            # DRAM access through the shared bandwidth cap.
            yield self.bandwidth_gate.hold(
                window_size / bw, cpu.memory_access_ns(window_size))
            return True

        def read(addr, size):
            return memory.read(entry.translate(addr, PERM_READ), size)

        def compute(executed):
            self._m_iterations.inc()
            self._m_bytes.inc(window_size)
            return self.env.timeout(executed * instruction_ns)

        try:
            machine.reset(request.cur_ptr, request.scratch)
        except ExecutionFault as exc:
            return request.advanced(request.cur_ptr, request.scratch, 0,
                                    RequestStatus.FAULT, str(exc))
        iterations, fault, done = yield from walk(
            machine, read, node.write_virt, fetch, compute,
            budget=(system.params.accelerator.max_iterations
                    - request.iterations_done))

        def respond(status, reason=""):
            return request.advanced(machine.cur_ptr, bytes(machine.scratch),
                                    iterations, status, reason)

        if done:
            return respond(RequestStatus.DONE)
        if fault is not None:
            if fault.kind == "budget":
                return respond(RequestStatus.ITER_LIMIT)
            return respond(RequestStatus.FAULT, fault.reason)
        owner = node.addrspace.node_of(missed)
        if owner is not None and owner != node.node_id:
            response = respond(RequestStatus.RUNNING)
            response.node_hops = request.node_hops + 1
            return response
        return respond(RequestStatus.FAULT, f"invalid pointer {missed:#x}")


class RpcSystem(Rack):
    """The RPC / RPC-W baseline rack."""

    served_bytes = "rpc.bytes_loaded"

    def __init__(self, node_count: int = 1, params=None, wimpy: bool = False,
                 workers_per_node: Optional[int] = None, seed: int = 0,
                 **kwargs):
        super().__init__(node_count, params, seed=seed, **kwargs)
        self.wimpy = wimpy
        self.cpu = self.params.wimpy if wimpy else self.params.cpu
        workers = (workers_per_node if workers_per_node is not None
                   else workers_to_saturate(
                       self.cpu,
                       self.params.memory.bandwidth_bytes_per_ns))
        self.workers_per_node = workers
        self.session = make_session(self, "client0")
        self.client = self.session.endpoint
        self.client_stack = Resource(self.env, capacity=8)
        for node in self.memory.nodes:
            _RpcServer(self, node, workers)   # lives on as its handler
        self._record_result = result_recorder(self.registry, "client0")
        self._waiters: Dict[tuple, object] = {}
        self._counter = 0
        self.session.on_message = self._on_message

    def serving_watts(self) -> float:
        """Every memory node's worker pool, wimpy or full cores."""
        power = self.params.power
        worker_watts = (power.wimpy_worker_watts if self.wimpy
                        else power.cpu_worker_watts)
        return (worker_watts * self.workers_per_node * self.node_count
                + power.client_watts)

    # -- client ----------------------------------------------------------------
    def _on_message(self, message: Message) -> None:
        """One DPDK stack span, then the response wakes its waiter."""
        self.client_stack.hold(
            self.params.network.dpdk_stack_ns).callbacks.append(
                lambda _hold: self._deliver(message))

    def _deliver(self, message: Message) -> None:
        response: TraversalRequest = message.payload
        waiter = self._waiters.pop(response.request_id, None)
        if waiter is not None:
            waiter.succeed(response)

    def traverse(self, iterator: PulseIterator, *args):
        start = self.env.now
        cur_ptr, scratch = iterator.init(*args)
        self._counter += 1
        request = TraversalRequest(
            request_id=(0, self._counter),
            program=iterator.program,
            cur_ptr=cur_ptr,
            scratch=bytes(scratch),
        )
        while True:
            response = yield from self._send_to_owner(request)
            if response.status in (RequestStatus.DONE,
                                   RequestStatus.FAULT):
                break
            # RUNNING (left the node) or ITER_LIMIT: client continues it.
            self._counter += 1
            request = replace(response, request_id=(0, self._counter),
                              status=RequestStatus.RUNNING)

        result = TraversalResult.from_response(iterator, response,
                                               self.env.now - start)
        self._record_result(result)
        return result

    def _send_to_owner(self, request: TraversalRequest):
        owner = self.memory.addrspace.node_of(request.cur_ptr)
        if owner is None:
            return request.advanced(
                request.cur_ptr, request.scratch, 0,
                RequestStatus.FAULT,
                f"client: unroutable pointer {request.cur_ptr:#x}")
        waiter = self.env.event()
        self._waiters[request.request_id] = waiter
        yield self.client_stack.hold(self.params.network.dpdk_stack_ns)
        self.session.send(f"mem{owner}", RPC_KIND, request,
                          request.wire_bytes())
        response = yield waiter
        return response
