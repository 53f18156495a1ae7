"""The pulse accelerator at a memory node (section 4.2).

One accelerator models the FPGA SmartNIC in front of one memory node:

* a **network stack** (rx and tx units, 430 ns per message each way) that
  parses/deparses traversal requests;
* a **scheduler** (4 ns dispatch) assigning requests to cores;
* **cores**, each a memory access pipeline plus ``eta`` logic pipelines
  with a bounded set of workspaces (concurrent in-flight iterators);
* a shared **interconnect** in front of DRAM capping node bandwidth (the
  vendor IP the supplementary material measures at 25 GB/s, or 34 GB/s
  when bypassed).

Execution of a request alternates memory and logic phases per iteration,
exactly the decoupled-pipeline structure of Fig 2/3: the memory pipeline
is held only for its occupancy (translation + burst transfer) so multiple
workspaces keep it saturated, while the logic pipelines charge one FPGA
cycle per ISA instruction.

Functional behaviour is real: the same
:class:`~repro.isa.interpreter.IteratorMachine` the tests validate runs
here over the node's actual bytes, and a translation miss -- a pointer
owned by a *different* node -- produces a RUNNING response that the switch
re-routes (section 5).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.messages import (DIRECT_READ_KIND, DURABILITY_KIND,
                                 SWITCH, DirectReadReply,
                                 DirectReadRequest, ReplicateAck,
                                 ReplicateRecords, RequestStatus,
                                 TraversalBatch, TraversalRequest)
from repro.core.scheduling import FairWorkspacePool, FifoWorkspacePool
from repro.core.workspace import MachinePool
from repro.isa.instructions import MASK64, ExecutionFault
from repro.isa.interpreter import IteratorMachine
from repro.mem.node import MemoryNode
from repro.mem.translation import (PERM_READ, ProtectionFault,
                                   TranslationCache, TranslationFault)
from repro.obs.metrics import MetricsRegistry
from repro.params import SystemParams
from repro.placement.hotness import HotnessTracker
from repro.placement.rangemap import PlacementMap
from repro.sim.engine import Environment
from repro.sim.network import Fabric, Message
from repro.sim.resources import Resource
from repro.transport import TransportSession

#: message kind tag for pulse traversal traffic
PULSE_KIND = "pulse"


class _Lane:
    """One lane of a group: a request, its workspace frame, and the
    traversal state a reply or continuation carries."""

    __slots__ = ("request", "frame", "iterations", "prev_load", "dirty",
                 "addr", "entry", "returned", "_node", "_durability")

    def __init__(self, request: TraversalRequest, frame: IteratorMachine,
                 node: MemoryNode, durability):
        self.request = request
        self.frame = frame
        self._node = node
        self._durability = durability
        self.iterations = 0
        #: the previous load in *this traversal* (carried across reroute
        #: continuations): seeds the successor-edge sampling chain
        self.prev_load = request.last_load_vaddr
        #: redo-log LSNs of this lane's STOREs (durable racks only)
        self.dirty: List[int] = []
        #: this step's load address and the TLB entry held for it
        self.addr = 0
        self.entry = None
        self.returned = False

    def write(self, vaddr: int, data: bytes) -> None:
        # The STORE applies to DRAM and journals into the redo log in
        # one step; the reply commit-waits on the dirty LSNs before
        # acknowledging (group commit).
        self._node.write_virt(vaddr, data)
        if self._durability is not None:
            self.dirty.append(self._durability.journal(vaddr, data))

    def response(self, status: RequestStatus,
                 fault_reason: str = "") -> TraversalRequest:
        frame = self.frame
        return self.request.advanced(
            frame.cur_ptr, bytes(frame.scratch), self.iterations, status,
            fault_reason, last_load_vaddr=self.prev_load)


class AcceleratorCore:
    """One core: memory access pipeline, logic pipelines, TLB, frames.

    ``tlb`` and ``workspace`` are attached by the owning
    :class:`Accelerator` (they need the node's table and the shared
    registry counters).
    """

    def __init__(self, env: Environment, core_id: int,
                 logic_pipelines: int):
        self.core_id = core_id
        self.memory_pipeline = Resource(env, capacity=1)
        self.logic_pipeline = Resource(env, capacity=logic_pipelines)
        self.tlb: Optional[TranslationCache] = None
        self.workspace: Optional[MachinePool] = None


class Accelerator:
    """The SmartNIC accelerator serving one memory node."""

    def __init__(self, env: Environment, node: MemoryNode, fabric: Fabric,
                 params: SystemParams, placement_map: PlacementMap,
                 hotness: HotnessTracker, registry: MetricsRegistry,
                 shared_interconnect: bool = True,
                 split_loads: bool = False,
                 scheduler_policy: str = "fifo",
                 batch_lanes: int = 32):
        self.env = env
        self.node = node
        self.fabric = fabric
        self.params = params
        self.name = node.name
        #: the rack's live ownership map -- the one authority the miss
        #: path and direct reads consult (the switch routes by it too)
        self.placement_map = placement_map
        #: this node's heat sampler, fed by the memory pipeline
        self.hotness = hotness
        acc = params.accelerator
        if acc.cores < 1:
            raise ValueError("accelerator needs at least one core")

        self.session = TransportSession(env, fabric, self.name,
                                        params=params.transport,
                                        registry=registry)
        self.cores: List[AcceleratorCore] = [
            AcceleratorCore(env, i, acc.logic_pipelines_per_core)
            for i in range(acc.cores)
        ]
        # Workspace tokens: the scheduler hands an incoming request to a
        # core with a free workspace; requests beyond capacity queue in
        # the policy's structure (section 4.2.3 / Supp B).
        tokens = [core.core_id for core in self.cores
                  for _ in range(acc.workspaces_per_core)]
        if scheduler_policy == "fifo":
            self.workspaces = FifoWorkspacePool(env, tokens)
        elif scheduler_policy == "fair":
            self.workspaces = FairWorkspacePool(env, tokens)
        else:
            raise ValueError(
                f"unknown scheduler policy {scheduler_policy!r}")
        #: admission bound: requests may queue up to this many deep
        #: (``admission_queue_depth`` per core) before arrivals are
        #: NACKed with RETRY -- the parked-request SRAM is finite
        self.admission_limit = acc.admission_queue_depth * acc.cores
        self.rx_unit = Resource(env, capacity=1)
        self.tx_unit = Resource(env, capacity=1)
        self.scheduler_unit = Resource(env, capacity=1)
        #: vendor interconnect IP shared by all cores (None = bypassed,
        #: each core keeps its dedicated channel; Supp Fig 1b)
        self.interconnect: Optional[Resource] = (
            Resource(env, capacity=1) if shared_interconnect else None)
        self.node_bandwidth = params.memory.bandwidth_bytes_per_ns
        #: ablation: charge each distinct field access as its own load
        #: instead of the offload engine's single aggregated LOAD (§4.1)
        self.split_loads = split_loads

        self.registry = registry
        self._events = registry.events
        prefix = f"{self.name}.acc"
        self._m_requests = registry.counter(f"{prefix}.requests")
        self._m_responses = registry.counter(f"{prefix}.responses")
        self._m_iterations = registry.counter(f"{prefix}.iterations")
        self._m_rerouted = registry.counter(f"{prefix}.rerouted")
        self._m_faults = registry.counter(f"{prefix}.faults")
        self._m_bytes = registry.counter(f"{prefix}.bytes_loaded")
        self._m_instructions = registry.counter(f"{prefix}.instructions")
        self._span_netstack = registry.histogram(f"{prefix}.span.netstack")
        self._span_scheduler = registry.histogram(
            f"{prefix}.span.scheduler")
        self._span_memory = registry.histogram(f"{prefix}.span.memory")
        self._span_logic = registry.histogram(f"{prefix}.span.logic")
        self._m_batches = registry.counter(f"{prefix}.batches")
        self._batch_size_hist = registry.histogram(f"{prefix}.batch_size")
        #: multi-lane groups only: lanes stepped per lockstep step, lanes
        #: that left early (miss, MOVED, fault), groups formed and steps
        self._batch_lanes_hist = registry.histogram(
            f"{prefix}.batch.lanes_active")
        self._m_batch_demotions = registry.counter(
            f"{prefix}.batch.demotions")
        self._m_batch_groups = registry.counter(f"{prefix}.batch.groups")
        self._m_batch_steps = registry.counter(f"{prefix}.batch.steps")
        self._m_nacks = registry.counter(f"{prefix}.admission_nacks")
        self._m_moved = registry.counter(f"{prefix}.moved_replies")
        self._m_direct_reads = registry.counter(f"{prefix}.direct_reads")
        self._m_direct_nacks = registry.counter(
            f"{prefix}.direct_read_nacks")
        #: optional durability hooks, attached by
        #: :class:`~repro.durability.service.DurabilityService`: this
        #: node's redo log / group-commit state.  The crash flag is the
        #: session's ``powered_off``: it keeps new arrivals out, and
        #: serves already in flight finish without replying.
        self.durability = None
        #: round-robin core cursor for split-index direct reads (they
        #: use a core's memory pipeline but never need a workspace)
        self._dr_core = 0
        # Per-core translation caches and workspace frame pools; the
        # hit/miss and reuse counters are shared across cores (one pair
        # per accelerator in the registry).
        tlb_hits = registry.counter(f"{prefix}.tlb.hits")
        tlb_misses = registry.counter(f"{prefix}.tlb.misses")
        ws_reused = registry.counter(f"{prefix}.workspace.reused")
        ws_allocated = registry.counter(f"{prefix}.workspace.allocated")
        #: modeled SIMT width (see ``PulseCluster``'s ``batch_lanes``;
        #: 0 = every request is a group of one lane, and a width of 1 is
        #: never a group)
        self.batch_lanes = batch_lanes if batch_lanes > 1 else 0
        for core in self.cores:
            core.tlb = TranslationCache(
                node.table, capacity=acc.tlb_entries_per_core,
                hit_counter=tlb_hits, miss_counter=tlb_misses)
            # A full-width group checks out one frame per lane at once.
            core.workspace = MachinePool(
                capacity=max(acc.workspaces_per_core, self.batch_lanes),
                reused=ws_reused, allocated=ws_allocated)
        registry.gauge(f"{prefix}.admission_queue_depth",
                       fn=lambda: float(self.workspaces.queue_length()))
        self.workspaces.attach_metrics(registry, prefix)
        registry.gauge(f"{prefix}.memory_pipeline_utilization",
                       fn=self.memory_pipeline_utilization)
        registry.gauge(f"{prefix}.memory_bandwidth_bytes_per_ns",
                       fn=self.memory_bandwidth_used)
        self.session.on_message = self._on_message

    # -- receive ------------------------------------------------------------
    def _on_message(self, message: Message) -> None:
        # The netstack parses the *message* once; a batch amortizes the
        # parse across its constituent requests.
        self._netstack(self.rx_unit).callbacks.append(
            lambda _parsed: self._on_parsed(message.payload))

    def _on_parsed(self, payload) -> None:
        """Parse end: dispatch on payload kind.  Replication frames are
        served here; only a coroutine that waits more than once
        (admission, a direct read) gets a process."""
        self._span_netstack.record(self.params.accelerator.netstack_ns)
        if isinstance(payload, ReplicateAck):
            if self.durability is not None:
                self.durability.on_ack(payload)
        elif isinstance(payload, ReplicateRecords):
            self._serve_replication(payload)
        elif isinstance(payload, DirectReadRequest):
            self.env.process(self._serve_direct_read(payload))
        else:
            self.env.process(self._admit(payload))

    # -- processes ----------------------------------------------------------
    def _admit(self, payload):
        """Admission over one doorbell frame: a scheduler dispatch per
        request, then lane groups out of whatever was admitted."""
        acc = self.params.accelerator
        if isinstance(payload, TraversalBatch):
            requests = list(payload.requests)
            self._m_batches.inc()
            self._batch_size_hist.record(len(requests))
        else:
            requests = [payload]

        admitted: List[TraversalRequest] = []
        for request in requests:
            self._m_requests.inc()
            yield self.scheduler_unit.hold(acc.scheduler_dispatch_ns)
            self._span_scheduler.record(acc.scheduler_dispatch_ns)
            if self._events is not None:
                self._events.record(self.name, "rx", request.request_id,
                                    cur_ptr=hex(request.cur_ptr))
            # Admission control: the queue of parked requests is bounded;
            # past the bound the scheduler NACKs instead of queueing.
            if self.workspaces.queue_length() >= self.admission_limit:
                self._m_nacks.inc()
                if self._events is not None:
                    self._events.record(
                        self.name, "nack", request.request_id,
                        queue=self.workspaces.queue_length())
                self._respond(request.advanced(
                    request.cur_ptr, request.scratch, 0,
                    RequestStatus.RETRY))
                continue
            admitted.append(request)
        self._dispatch_admitted(admitted)

    def _dispatch_admitted(self, admitted: List[TraversalRequest]) -> None:
        """Form lane groups out of one doorbell frame's admitted requests.

        Requests sharing a kernel (same program digest) run as one
        lockstep group of up to ``batch_lanes`` lanes on a single core.
        Kernels with a STORE never share a group (a lane's write would
        land between its neighbours' loads), and whatever is left over
        runs as groups of one.  Multi-lane groups start first, in
        digest-insertion order, then the singles.
        """
        width = self.batch_lanes
        singles: List[TraversalRequest] = []
        groups: dict = {}
        if width < 2 or len(admitted) < 2:
            singles = admitted
        else:
            for request in admitted:
                if request.program.has_store:
                    singles.append(request)
                else:
                    groups.setdefault(request.program.digest(),
                                      []).append(request)
        for group in groups.values():
            for start in range(0, len(group), width):
                chunk = group[start:start + width]
                if len(chunk) < 2:
                    singles.extend(chunk)
                    continue
                self._m_batch_groups.inc()
                self.env.process(self._serve_group(chunk))
        for request in singles:
            self.env.process(self._serve_group([request]))

    def _serve_direct_read(self, request: DirectReadRequest):
        """The split-index fast path: validate, one DRAM burst, reply.

        Validation happens *before* DRAM is touched: the address must
        translate locally **and** the live placement map must still name
        this node as the owner.  Either failing means the client's
        directory entry is stale (segment migrated, or never ours) --
        NACK so the client falls back to the offloaded traversal; never
        return bytes a migration may have invalidated.
        """
        acc = self.params.accelerator
        self._m_direct_reads.inc()
        yield self.scheduler_unit.hold(acc.scheduler_dispatch_ns)
        self._span_scheduler.record(acc.scheduler_dispatch_ns)
        if self._events is not None:
            self._events.record(self.name, "direct_read",
                                request.request_id,
                                vaddr=hex(request.vaddr))

        ok, data, reason = False, b"", ""
        if self.placement_map.node_of(request.vaddr) != self.node.node_id:
            reason = f"segment {request.vaddr:#x} migrated away"
        else:
            core = self.cores[self._dr_core % len(self.cores)]
            self._dr_core += 1
            occupancy = acc.occupancy_ns(request.size)
            # One LOAD, one wait: the memory pipeline, chained into the
            # interconnect's share of node bandwidth (unless bypassed),
            # then the DRAM latency tail.
            if self.interconnect is None:
                interconnect_ns = 0.0
                yield core.memory_pipeline.hold(occupancy,
                                                acc.dram_latency_ns)
            else:
                interconnect_ns = request.size / self.node_bandwidth
                yield core.memory_pipeline.hold(
                    occupancy, chain=(self.interconnect, interconnect_ns,
                                      acc.dram_latency_ns))
            self._span_memory.record(occupancy + interconnect_ns
                                     + acc.dram_latency_ns)
            try:
                # Re-translate after the timed phase: a migration fence
                # may have remapped the range while we waited.
                data = self.node.read_virt(request.vaddr, request.size)
                ok = True
                self._m_bytes.inc(request.size)
                self.hotness.sample(request.vaddr)
            except (TranslationFault, ProtectionFault) as exc:
                reason = str(exc)
        if not ok:
            self._m_direct_nacks.inc()

        reply = DirectReadReply(
            request_id=request.request_id, vaddr=request.vaddr, ok=ok,
            data=data, map_version=self.placement_map.version,
            nack_reason=reason)
        # Straight back to the issuing client -- no switch traversal.
        self._transmit(request.reply_to, DIRECT_READ_KIND, reply,
                       segments=2)

    def _serve_group(self, requests: List[TraversalRequest]):
        """One lane group's life after admission: a single workspace
        grant, then lockstep execution; lanes reply as they retire.

        A group occupies one core exactly like one request does -- a
        request on its own is the group of one lane.
        """
        core_id = yield self.workspaces.acquire(requests[0].tenant)
        try:
            yield from self._execute_group(self.cores[core_id], requests)
        finally:
            self.workspaces.release(core_id)

    def _serve_replication(self, message: ReplicateRecords) -> None:
        """Apply a peer's redo-log flush and ack it (timed tx)."""
        if self.durability is not None:
            self.durability.apply_replica(message)
        ack = ReplicateAck(src_node=self.node.node_id,
                           flush_id=message.flush_id)
        self._transmit(f"mem{message.src_node}", DURABILITY_KIND, ack,
                       segments=1)

    def _respond(self, response: TraversalRequest) -> None:
        """Transmit one response (responses never batch)."""
        if self.session.powered_off:
            # A powered-off node transmits nothing; in-flight serves
            # finish silently and the switch-side takeover resumes (or
            # the client's end-to-end retry re-executes) the request.
            return
        # A RUNNING continuation here is a hop checkpoint: the session
        # flags it so a drop on the next leg resumes from this state.
        self._transmit(SWITCH, PULSE_KIND, response, segments=1,
                       sent=self._m_responses)

    def _transmit(self, dst: str, kind: str, payload, segments: int,
                  sent=None) -> None:
        """Deparse and send one message: the tx netstack stage, with the
        span record, the ``sent`` counter and the send in its end
        callback (the tx unit serializes)."""
        def send(_deparsed) -> None:
            self._span_netstack.record(self.params.accelerator.netstack_ns)
            if sent is not None:
                sent.inc()
            self.session.send(dst, kind, payload, payload.wire_bytes(),
                              segments=segments)
        self._netstack(self.tx_unit).callbacks.append(send)

    def _execute_group(self, core: AcceleratorCore,
                       requests: List[TraversalRequest]):
        """Step a lane group through one kernel until every lane retired.

        Each lane is a pooled workspace frame.  Per lockstep step, in
        lane order: translate (TLB, then hotness sampling), one gathered
        memory phase for all lanes' bytes that pays the DRAM latency
        tail once, then every lane's logic pass.  Lanes retire
        individually -- RETURN, iteration budget, translation miss
        (reroute / MOVED / fault) or the frame's own fault -- and reply
        from :meth:`_retire` while the rest of the group runs on.

        A lane-step costs one Python call, the frame's ``step_fn``: the
        translation memo, the hotness countdown and the DRAM slice are
        inline, and the counters they feed are tallied in locals and
        published before the pass's yield (no other process runs in
        between, so no one can see a counter differ from a per-lane
        increment).
        """
        acc = self.params.accelerator
        program = requests[0].program
        window_offset, window_size = program.load_window
        # Ablation: a non-aggregating compiler's loads, each its own
        # memory phase, instead of the single aggregated LOAD (§4.1).
        # Per load: its bytes and one lane's pipeline occupancy.
        loads = [(load_bytes, acc.occupancy_ns(load_bytes))
                 for _offset, load_bytes in (
                     program.naive_load_runs() if self.split_loads
                     else [(0, window_size)])]
        dram_ns = acc.dram_latency_ns
        instruction_ns = acc.instruction_ns
        pipeline_depth = acc.logic_pipeline_depth
        memory_pipeline = core.memory_pipeline
        logic_pipeline = core.logic_pipeline
        interconnect = self.interconnect
        node_bandwidth = self.node_bandwidth
        record_memory = self._span_memory.record
        record_logic = self._span_logic.record
        grouped = len(requests) > 1
        tlb = core.tlb
        table = tlb.table
        mru = tlb.mru
        memory = self.node.memory
        mapping = memory.mapping
        dram_limit = memory.size - window_size
        hotness = self.hotness
        lanes: List[_Lane] = []
        for request in requests:
            # Check out a reusable frame for this kernel instead of
            # building a machine per request; reset() zero-fills its
            # scratch in place.
            lane = _Lane(request, core.workspace.acquire(program),
                         self.node, self.durability)
            try:
                lane.frame.reset(request.cur_ptr, request.scratch)
            except ExecutionFault as exc:
                self._m_faults.inc()
                self._retire(core, lane, request.advanced(
                    request.cur_ptr, request.scratch, 0,
                    RequestStatus.FAULT, str(exc)), early=grouped)
                continue
            lanes.append(lane)

        while lanes:
            if grouped:
                self._batch_lanes_hist.record(len(lanes))
                self._m_batch_steps.inc()
            # Translation stage: the per-core TLB absorbs the full TCAM
            # walk on range-local iterations (the common case).  A lane
            # whose entry (None before its first step) is still the
            # TLB's MRU entry at an unchanged version, and covers the new
            # window, skips the lookup: it would return that entry and
            # reorder nothing, so the skip counts as the hit it is
            # (§4.2: translate once per range-local run).
            held: List[_Lane] = []
            memo_hits = 0
            for lane in lanes:
                addr = (lane.frame.cur_ptr + window_offset) & MASK64
                entry = lane.entry
                if (mru and mru[0] is entry and tlb.version == table.version
                        and entry.virt_start <= addr
                        and addr + window_size <= entry.virt_end):
                    memo_hits += 1
                else:
                    entry = lane.entry = tlb.lookup(addr, window_size)
                    if entry is None:
                        self._retire(core, lane,
                                     self._miss_response(lane, addr),
                                     early=grouped)
                        continue
                # The tracker's geometric skip, counted down here: it is
                # called only for a sample that is due.
                hotness.countdown -= 1
                if hotness.countdown <= 0:
                    hotness.take(addr, lane.prev_load)
                lane.prev_load = lane.addr = addr
                held.append(lane)
            if memo_hits:
                tlb.hits.value += memo_hits
            if not held:
                return
            version = table.version

            # Memory phase: the gathered LOAD holds the pipeline and
            # interconnect for all lanes' bytes but pays the DRAM
            # latency tail (overlapped with other workspaces) once.
            width = len(held)
            memory_ns = 0.0
            for load_bytes, lane_occupancy in loads:
                occupancy = width * lane_occupancy
                if interconnect is None:
                    interconnect_ns = 0.0
                    yield memory_pipeline.hold(occupancy, dram_ns)
                else:
                    interconnect_ns = width * load_bytes / node_bandwidth
                    yield memory_pipeline.hold(
                        occupancy,
                        chain=(interconnect, interconnect_ns, dram_ns))
                memory_ns += occupancy + interconnect_ns + dram_ns
            record_memory(memory_ns)

            if table.version != version:
                # Simulated time passed: a migration fence remapped the
                # node's table.  Revalidate each held entry (zero time
                # -- hardware replays the access against the updated
                # TCAM) so no lane reads through a stale translation.
                # A lane's prev_load already names this load: its edge
                # was sampled above, so the continuation must not
                # re-record it at the new owner.
                stale, held = held, []
                for lane in stale:
                    lane.entry = tlb.revalidate(lane.entry, lane.addr,
                                                window_size)
                    if lane.entry is None:
                        self._retire(core, lane,
                                     self._miss_response(lane, lane.addr),
                                     early=grouped)
                    else:
                        held.append(lane)

            # Logic pass: one FPGA cycle per executed logic instruction.
            # The frame is handed the window's bytes straight through
            # the entry its lane holds (translation + protection, §4.2):
            # a slice of the node's mapping once the range is known to
            # lie inside it.
            stepped: List[_Lane] = []
            work = slowest = 0
            for lane in held:
                entry = lane.entry
                frame = lane.frame
                try:
                    if not entry.perms & PERM_READ:
                        raise ProtectionFault(lane.addr, PERM_READ,
                                              entry.perms)
                    phys = entry.phys_start + (lane.addr - entry.virt_start)
                    if 0 <= phys <= dram_limit:
                        data = mapping[phys:phys + window_size]
                    else:
                        # Outside the node's DRAM: read raises the fault.
                        data = memory.read(phys, window_size)
                    lane.returned, executed = frame.step_fn(frame, data,
                                                            lane.write)
                except (ExecutionFault, ProtectionFault,
                        TranslationFault) as exc:
                    self._m_faults.inc()
                    self._retire(core, lane, lane.response(
                        RequestStatus.FAULT, str(exc)), early=grouped)
                    continue
                lane.iterations += 1
                cycles = executed - 1
                work += cycles
                if cycles > slowest:
                    slowest = cycles
                stepped.append(lane)
            if not stepped:
                return
            count = len(stepped)
            self._m_iterations.value += count
            self._m_bytes.value += count * window_size
            self._m_instructions.value += work + count

            # The datapath is pipelined: it is *occupied* for only the
            # summed work / depth (another workspace's iteration can
            # enter), while the group waits out its slowest lane's full
            # latency (the SIMT convoy).
            logic_ns = work * instruction_ns
            occupancy = logic_ns / pipeline_depth
            yield logic_pipeline.hold(
                occupancy, max(0.0, slowest * instruction_ns - occupancy))
            record_logic(logic_ns)

            lanes = []
            for lane in stepped:
                if lane.returned:
                    status = RequestStatus.DONE
                elif (lane.request.iterations_done + lane.iterations
                      >= acc.max_iterations):
                    status = RequestStatus.ITER_LIMIT
                else:
                    lanes.append(lane)
                    continue
                self._retire(core, lane, lane.response(status))

    def _retire(self, core: AcceleratorCore, lane: "_Lane",
                response: TraversalRequest, early: bool = False) -> None:
        """Return the lane's frame and reply -- at once, or when the
        lane's STOREs are durable.

        ``early`` marks a lane leaving a multi-lane group before RETURN
        or the iteration budget (miss, MOVED, fault).  A commit-wait
        parks only the reply callback: the group steps on and its
        workspace token is released without it.
        """
        core.workspace.release(lane.frame)
        if early:
            self._m_batch_demotions.inc()

        def reply(_durable=None) -> None:
            if self._events is not None:
                request = lane.request
                self._events.record(
                    self.name, "execute", request.request_id,
                    core=core.core_id,
                    iterations=(response.iterations_done
                                - request.iterations_done),
                    status=response.status.value)
            self._respond(response)

        # The response -- whatever its status -- must not acknowledge
        # STOREs that could still be lost with this node: park it until
        # the group commit replicates.
        wait = (self.durability.wait_durable(max(lane.dirty))
                if lane.dirty else None)
        if wait is None:
            reply()
        else:
            wait.callbacks.append(reply)

    def _miss_response(self, lane: "_Lane",
                       load_addr: int) -> TraversalRequest:
        """Translation miss: re-route, redirect (migrated), or fault.

        The live placement map decides.  A pointer it gives to another
        node leaves for the switch, which routes by the same map: as
        RUNNING when the pointer is arithmetically foreign (the paper's
        distributed hop, §5), as MOVED when it is arithmetically *ours*
        and has migrated away -- however long ago.  A pointer the map
        gives to nobody, or back to this node (an unmapped gap inside a
        span that migrated in), faults: bouncing it would ping-pong
        switch<->node forever, node_hops growing each leg so the
        stale-epoch filter never drops it.
        """
        node_id = self.node.node_id
        owner = self.node.addrspace.node_of(load_addr)
        foreign = owner is not None and owner != node_id
        live_owner = self.placement_map.node_of(load_addr)
        if live_owner is not None and live_owner != node_id:
            if foreign:
                self._m_rerouted.inc()
                response = lane.response(RequestStatus.RUNNING)
            else:
                self._m_moved.inc()
                response = lane.response(RequestStatus.MOVED)
            response.node_hops += 1
            return response
        self._m_faults.inc()
        if foreign:
            return lane.response(
                RequestStatus.FAULT,
                f"invalid pointer {load_addr:#x}: unmapped on its live "
                f"owner")
        return lane.response(RequestStatus.FAULT,
                             f"invalid pointer {load_addr:#x}")

    # -- helpers -------------------------------------------------------------
    def _netstack(self, unit: Resource):
        """One parse/deparse: the pipelined unit is occupied for a few
        cycles, the message waits out the full netstack latency."""
        acc = self.params.accelerator
        return unit.hold(acc.netstack_occupancy_ns,
                         acc.netstack_ns - acc.netstack_occupancy_ns)

    # -- observability ---------------------------------------------------------
    def memory_pipeline_utilization(self) -> float:
        """Mean busy fraction of the cores' memory pipelines, over the
        busy-time window ``begin_measurement`` re-bases."""
        values = [c.memory_pipeline.utilization() for c in self.cores]
        return sum(values) / len(values)

    def memory_bandwidth_used(self) -> float:
        """Bytes/ns loaded from DRAM over the registry's window."""
        return self.registry.rate(self._m_bytes)
