"""The Cache-based baseline: Fastswap-style demand paging.

The traversal's kernel executes at the *CPU node*; every memory reference
goes through a client-side page cache (default 4 KB pages, 2 MB capacity
against the scaled-down datasets -- preserving the paper's 2 GB : hundreds
of GB ratio).  A miss is a page fault: kernel fault-handling software
(3.5 us-class, section 7.1's "software overheads of page swapping"), a
network round trip, and a 4 KB transfer.  This is why the approach is
simultaneously slow (pointer chasing has no locality, so nearly every hop
faults) and network-bound (4 KB moved per 256 B actually used -- Fig 6's
"network bandwidth identical to memory bandwidth").

Page faults are served by a small pool of fault handlers; concurrency
beyond the pool queues, modeling the paging path's limited parallelism.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.baselines.common import make_session
from repro.core.client import result_recorder
from repro.core.cluster import Rack
from repro.core.iterator import PulseIterator, TraversalResult, walk
from repro.core.workspace import MachinePool
from repro.mem.translation import TranslationFault
from repro.sim.network import Message
from repro.sim.stages import Stage, cache_stages

PAGE_KIND = "page"


class PageCache:
    """A client-resident LRU set: Cache's 4 KB pages, or Cache+RPC's
    objects (by address).

    It counts nothing: each system counts its hits, misses and
    evictions in registry counters (:func:`cache_counters`).
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("cache needs at least one entry")
        self.capacity = capacity
        self._keys: "OrderedDict[int, bool]" = OrderedDict()

    def __contains__(self, key: int) -> bool:
        return key in self._keys

    def access(self, key: int) -> bool:
        """Touch ``key``; True on a hit (it becomes most recent)."""
        if key in self._keys:
            self._keys.move_to_end(key)
            return True
        return False

    def fill(self, key: int) -> bool:
        """Insert ``key``; True when that evicted the least recent one."""
        if key in self._keys:
            return False
        evicted = len(self._keys) >= self.capacity
        if evicted:
            self._keys.popitem(last=False)
        self._keys[key] = True
        return evicted


def cache_counters(registry, prefix: str):
    """``(hits, misses, evictions)`` counters of a client cache under
    ``<prefix>.*``, plus the ``<prefix>.hit_ratio`` gauge over them."""
    hits = registry.counter(f"{prefix}.hits")
    misses = registry.counter(f"{prefix}.misses")

    def hit_ratio() -> float:
        total = hits.value + misses.value
        return hits.value / total if total else 0.0

    registry.gauge(f"{prefix}.hit_ratio", fn=hit_ratio)
    return hits, misses, registry.counter(f"{prefix}.evictions")


class CacheSystem(Rack):
    """Demand-paging rack: dumb memory nodes, all smarts at the client."""

    served_bytes = "paging.bytes_served"
    #: kernel fault-handling contexts (the ``fault_unit``), the cores
    #: the energy model charges (the memory nodes are passive DRAM)
    workers_per_node = 4

    def __init__(self, node_count: int = 1, params=None, seed: int = 0,
                 **kwargs):
        super().__init__(node_count, params, seed=seed, **kwargs)
        mem = self.params.memory
        self.page_bytes = mem.page_bytes
        self.cache = PageCache(max(1, mem.cache_bytes // self.page_bytes))
        self.session = make_session(self, "client0")
        self.client = self.session.endpoint
        stages = cache_stages(self.params, self.workers_per_node)
        self.fault_unit = Stage(self.env, stages["fault_unit"])
        self.cpu_unit = Stage(self.env, stages["cpu"])
        for node in self.memory.nodes:
            _PagingServer(self, node, stages["bandwidth_gate"])  # handler
        self._record_result = result_recorder(self.registry, "client0")
        self._m_pages_fetched = self.registry.counter(
            "client0.cache.pages_fetched")
        self._m_hits, self._m_misses, self._m_evictions = cache_counters(
            self.registry, "client0.cache")
        # CPU-node execution frames, reused across traversals.
        self._machines = MachinePool(
            capacity=8,
            reused=self.registry.counter(
                "client0.cache.workspace.reused"),
            allocated=self.registry.counter(
                "client0.cache.workspace.allocated"))
        self.session.on_message = self._on_message

    def _on_message(self, message: Message) -> None:
        # The page reply carries the faulting process's own event.  The
        # transport session's dedup matters here: a duplicate delivery
        # would re-trigger an already-succeeded event.
        message.payload.succeed(message)

    def serving_watts(self) -> float:
        """The CPU node's fault handlers; the memory nodes are passive
        DRAM, so all the work is the paging path's."""
        return self.params.power.cpu_worker_watts * self.workers_per_node

    # -- the traversal, executed at the CPU node ------------------------------
    def traverse(self, iterator: PulseIterator, *args):
        start = self.env.now
        window_size = iterator.program.load_window[1]

        def fetch(address):
            # A wild pointer faults here, before any page moves.
            node = self.memory.node_of(address)
            if node is None:
                raise TranslationFault(address)
            node.table.translate(address, window_size)
            last_page = (address + window_size - 1) // self.page_bytes
            for page in range(address // self.page_bytes, last_page + 1):
                yield from self._access_page(page)
            return True

        cur_ptr, scratch = iterator.init(*args)
        machine = self._machines.acquire(iterator.program)
        try:
            machine.reset(cur_ptr, scratch)
            iterations, fault, _done = yield from walk(
                machine, self.memory.read, self.memory.write, fetch,
                self.cpu_unit.visit,
                budget=4 * self.params.accelerator.max_iterations)
            value = (None if fault is not None
                     else iterator.finalize(bytes(machine.scratch)))
        finally:
            self._machines.release(machine)
        result = TraversalResult(
            value=value,
            iterations=iterations,
            latency_ns=self.env.now - start,
            offloaded=False,
            fault=fault,
        )
        self._record_result(result)
        return result

    def _access_page(self, page: int):
        cpu = self.params.cpu
        if self.cache.access(page):
            # Local DRAM hit at the CPU node.
            self._m_hits.inc()
            yield self.env.timeout(cpu.dram_access_ns)
            return
        self._m_misses.inc()
        yield from self._fault(page)

    def _fault(self, page: int):
        """One demand-paging round trip for ``page``."""
        net = self.params.network
        grant = self.fault_unit.request()
        yield grant
        try:
            # Double check: another fault may have filled it while queued.
            if page in self.cache:
                return
            yield self.env.timeout(net.paging_stack_ns)
            address = page * self.page_bytes
            owner = self.memory.placement.node_of(address)
            owner_name = f"mem{owner}" if owner is not None else "mem0"
            waiter = self.env.event()
            self.session.send(owner_name, PAGE_KIND, (waiter, page), 128)
            yield waiter
            if self.cache.fill(page):
                self._m_evictions.inc()
            self._m_pages_fetched.inc()
        finally:
            self.fault_unit.release(grant)


class _PagingServer:
    """Memory node side of a page fetch: DRAM read + page send."""

    def __init__(self, system: CacheSystem, node, bandwidth_gate):
        self.system = system
        self.env = system.env
        self.session = make_session(system, node.name)
        self.bandwidth_gate = Stage(self.env, bandwidth_gate)
        self._m_served = system.registry.counter(
            f"{node.name}.{system.served_bytes}")
        self.session.on_message = self._on_message

    def _on_message(self, message: Message) -> None:
        """One DRAM page read, then the page goes back."""
        waiter, _page = message.payload
        page_bytes = self.system.page_bytes

        def reply(_hold) -> None:
            self._m_served.inc(page_bytes)
            self.session.send("client0", PAGE_KIND, waiter,
                              page_bytes + 128)

        self.bandwidth_gate.visit(page_bytes).callbacks.append(reply)
