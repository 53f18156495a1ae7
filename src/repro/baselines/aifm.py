"""Cache+RPC baseline: AIFM-style application-integrated far memory.

AIFM caches *objects* (not pages) at the CPU node within the data
structure library and falls back to remote execution when objects are
not local.  Two properties from the paper drive the model:

* its communication runs on a TCP-based DPDK stack, measurably slower
  than eRPC (section 7.1: "Cache+RPC incurs higher latency than RPC due
  to its TCP-based DPDK stack");
* data-structure-aware caching buys nothing for pointer chasing --
  uniform lookups over a working set vastly larger than the cache mean
  the traversal leaves cached objects almost immediately (section 7.1).

Model: the client walks locally while nodes are object-cache hits; on the
first miss the remaining traversal is shipped as an RPC over the TCP
stack.  With realistic cache:data ratios, nearly every request offloads
within a hop or two, which is exactly why the measured behaviour tracks
RPC plus stack overhead.

As in the paper, this system is evaluated on a single memory node with
the UPC workload only (AIFM supports neither complex data structures like
B+Trees nor distributed execution natively).
"""

from __future__ import annotations

from dataclasses import replace

from repro.baselines.cache import PageCache, cache_counters
from repro.baselines.rpc import RpcSystem
from repro.core.iterator import PulseIterator, TraversalResult, walk
from repro.core.messages import RequestStatus, TraversalRequest
from repro.core.workspace import MachinePool
from repro.isa.instructions import wrap64


#: bytes one cached data-structure object occupies at the CPU node
OBJECT_BYTES = 256


class CacheRpcSystem(RpcSystem):
    """AIFM-like hybrid: object cache first, TCP-stack RPC fallback."""

    def __init__(self, params=None, seed: int = 0, **kwargs):
        if kwargs.get("node_count", 1) != 1:
            raise ValueError(
                "Cache+RPC (AIFM) is single-node only (section 7.1)")
        super().__init__(params=params, wimpy=False, seed=seed, **kwargs)
        #: data-structure objects (keyed by address) resident at the
        #: CPU node
        self.object_cache = PageCache(
            max(1, self.params.memory.cache_bytes // OBJECT_BYTES))
        self._m_hits, self._m_misses, self._m_evictions = cache_counters(
            self.registry, "client0.objcache")
        self._m_local_iterations = self.registry.counter(
            "client0.objcache.local_iterations")
        self._m_offloaded = self.registry.counter(
            "client0.objcache.offloaded_requests")
        # Client-side walk frames, reused across traversals.
        self._machines = MachinePool(
            capacity=8,
            reused=self.registry.counter(
                "client0.objcache.workspace.reused"),
            allocated=self.registry.counter(
                "client0.objcache.workspace.allocated"))

    @property
    def name(self) -> str:
        return "Cache+RPC"

    def traverse(self, iterator: PulseIterator, *args):
        start = self.env.now
        cpu = self.params.cpu
        net = self.params.network
        window_offset, window_size = iterator.program.load_window
        instruction_ns = cpu.instruction_ns()

        def fetch(address):
            if not self.object_cache.access(address):
                self._m_misses.inc()
                return False  # first non-resident object: offload the rest
            self._m_hits.inc()
            yield self.env.timeout(cpu.memory_access_ns(window_size))
            return True

        def compute(executed):
            self._m_local_iterations.inc()
            return self.env.timeout(executed * instruction_ns)

        # Phase 1: walk cached objects locally.
        cur_ptr, scratch = iterator.init(*args)
        machine = self._machines.acquire(iterator.program)
        try:
            machine.reset(cur_ptr, scratch)
            iterations, fault, done = yield from walk(
                machine, self.memory.read, self.memory.write, fetch,
                compute)
            cur_ptr, final_scratch = machine.cur_ptr, bytes(machine.scratch)
        finally:
            self._machines.release(machine)

        if done or fault is not None:
            result = TraversalResult(
                value=(None if fault is not None
                       else iterator.finalize(final_scratch)),
                iterations=iterations,
                latency_ns=self.env.now - start,
                offloaded=not done,
                fault=fault,
            )
        else:
            # Phase 2: RPC the remainder over the TCP-flavored stack.
            self._m_offloaded.inc()
            self._counter += 1
            request = TraversalRequest(
                request_id=(0, self._counter),
                program=iterator.program,
                cur_ptr=cur_ptr,
                scratch=final_scratch,
                iterations_done=iterations,
                issued_at_ns=start,
            )
            # TCP stack premium over the DPDK stack, both directions.
            tcp_premium = net.tcp_stack_ns - net.dpdk_stack_ns
            yield self.env.timeout(max(0.0, tcp_premium))
            response = yield from self._send_to_owner(request)
            yield self.env.timeout(max(0.0, tcp_premium))
            while response.status is RequestStatus.ITER_LIMIT:
                self._counter += 1
                response = yield from self._send_to_owner(replace(
                    response, request_id=(0, self._counter),
                    status=RequestStatus.RUNNING))
            # The traversed chain becomes cache-resident (AIFM swaps the
            # hot objects in); uniform access means it rarely helps.
            if self.object_cache.fill(wrap64(cur_ptr + window_offset)):
                self._m_evictions.inc()
            result = TraversalResult.from_response(iterator, response,
                                                   self.env.now - start)
        self._record_result(result)
        return result
