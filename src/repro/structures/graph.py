"""Graph traversal on disaggregated memory: bounded-frontier BFS.

The paper motivates pulse with "graph traversals in graph processing
workloads" (§1) and its supplementary discusses exactly the hard part:
a BFS needs a queue, and the scratch pad is bounded ("traversing a graph
... may require a stack- or queue-like local data structure"; Supp B
leaves swap space as future work and suggests exploiting *algorithmic
upper bounds* of the queue to keep execution deterministic).  This
module implements that suggestion: a BFS whose frontier queue lives in
the scratch pad with a declared capacity, using the ISA's
register-indexed scratch addressing as the queue cursor.

Semantics: starting from a root vertex, visit vertices in BFS order,
summing their values and counting visits, until (i) the frontier
empties, (ii) ``max_visits`` is reached, or (iii) the queue fills (the
kernel then stops *enqueuing* but keeps draining -- deterministic,
bounded, and exact on trees/DAGs reached within capacity).  On cyclic
graphs vertices may be visited more than once (a visited set does not
fit the bounded scratch pad -- the precise limitation the paper calls
out); callers for whom that matters bound the damage with
``max_visits``.

Vertex records are "fat" adjacency rows capped at ``MAX_DEGREE``
neighbors so the unrolled kernel stays within the per-iteration
compute budget (eta < 1):

    id:u64 | value:i64 | degree:u32 | pad:u32 | nbrs[MAX_DEGREE]:ptr
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.iterator import PulseIterator
from repro.core.kernel import KernelBuilder
from repro.mem.layout import Field, StructLayout
from repro.structures.base import NULL, DisaggregatedStructure, StructureError

#: adjacency fanout cap; 12 keeps the unrolled kernel's eta under 1
MAX_DEGREE = 12

VERTEX = StructLayout("vertex", [
    Field("id", "u64"),
    Field("value", "i64"),
    Field("degree", "u32"),
    Field("pad", "u32"),
    Field("nbrs", "u64", count=MAX_DEGREE),
])

#: scratch layout: fixed header then the frontier queue
SP_HEAD = 0          # read cursor (byte offset into scratch)
SP_TAIL = 8          # write cursor
SP_VISITED = 16      # vertices visited
SP_MAX_VISITS = 24   # visit budget
SP_VALUE_SUM = 32    # aggregated vertex values
SP_QUEUE = 40        # queue of vertex pointers starts here


class GraphBfs(PulseIterator):
    """Bounded-frontier BFS with value aggregation."""

    def __init__(self, graph: "DisaggregatedGraph",
                 queue_capacity: int = 64, max_visits: int = 256):
        if queue_capacity < 1:
            raise StructureError("queue capacity must be >= 1")
        self.graph = graph
        self.queue_capacity = queue_capacity
        self.max_visits = max_visits
        self.scratch_bytes = SP_QUEUE + 8 * queue_capacity
        self.program = self._build(self.scratch_bytes)

    def _build(self, scratch_bytes: int):
        queue_end = scratch_bytes
        k = KernelBuilder("graph_bfs", scratch_bytes=scratch_bytes)
        # Visit the current vertex.
        k.add(k.sp(SP_VISITED), k.sp(SP_VISITED), k.imm(1))
        k.add(k.sp(SP_VALUE_SUM), k.sp(SP_VALUE_SUM),
              k.field(VERTEX, "value"))
        # Enqueue neighbors while the queue has room (r2 = tail).
        k.move(k.reg(2), k.sp(SP_TAIL))
        for i in range(MAX_DEGREE):
            k.compare(k.imm(i), k.field(VERTEX, "degree"))
            k.jump_ge("enqueue_done")
            k.compare(k.reg(2), k.imm(queue_end))
            k.jump_ge("enqueue_done")
            k.move(k.sp_at(2), k.field(VERTEX, "nbrs", i))
            k.add(k.reg(2), k.reg(2), k.imm(8))
        k.label("enqueue_done")
        k.move(k.sp(SP_TAIL), k.reg(2))
        # Stop conditions: budget exhausted or frontier empty.
        k.compare(k.sp(SP_VISITED), k.sp(SP_MAX_VISITS))
        k.jump_ge("finished")
        k.compare(k.sp(SP_HEAD), k.sp(SP_TAIL))
        k.jump_ge("finished")
        # Dequeue the next vertex (r1 = head).
        k.move(k.reg(1), k.sp(SP_HEAD))
        k.move(k.cur_ptr(), k.sp_at(1))
        k.add(k.sp(SP_HEAD), k.sp(SP_HEAD), k.imm(8))
        k.next_iter()
        k.label("finished")
        k.ret()
        return k.build()

    def init(self, root_id: int) -> Tuple[int, bytes]:
        root = self.graph.address_of(root_id)
        if root == NULL:
            raise StructureError(f"no vertex with id {root_id}")
        scratch = bytearray(self.scratch_bytes)
        scratch[SP_HEAD:SP_HEAD + 8] = SP_QUEUE.to_bytes(8, "little")
        scratch[SP_TAIL:SP_TAIL + 8] = SP_QUEUE.to_bytes(8, "little")
        scratch[SP_MAX_VISITS:SP_MAX_VISITS + 8] = \
            int(self.max_visits).to_bytes(8, "little")
        return root, bytes(scratch)

    def finalize(self, scratch: bytes) -> Tuple[int, int]:
        visited = int.from_bytes(
            scratch[SP_VISITED:SP_VISITED + 8], "little")
        total = int.from_bytes(
            scratch[SP_VALUE_SUM:SP_VALUE_SUM + 8], "little",
            signed=True)
        return visited, total


class DisaggregatedGraph(DisaggregatedStructure):
    """Adjacency-record graph laid out in rack memory."""

    layout = VERTEX

    def __init__(self, memory, placement=None):
        super().__init__(memory, placement)
        self._addresses: Dict[int, int] = {}
        self._pending_edges: Dict[int, List[int]] = {}

    def add_vertex(self, vertex_id: int, value: int) -> int:
        vertex_id = self.check_key(vertex_id)
        if vertex_id in self._addresses:
            raise StructureError(f"vertex {vertex_id} already exists")
        # Adjacency runs: vertices with nearby ids (BFS frontiers in the
        # synthetic workloads) share an arena, so neighbor expansion
        # mostly stays inside one extent / one memory node.
        addr = self._alloc_node(VERTEX.size,
                                chain_hint=("run", vertex_id // 16))
        self.memory.write(addr, VERTEX.pack(
            id=vertex_id, value=value, degree=0,
            nbrs=[NULL] * MAX_DEGREE))
        self._addresses[vertex_id] = addr
        return addr

    def add_edge(self, src_id: int, dst_id: int) -> None:
        """Directed edge; both endpoints must exist."""
        src = self.address_of(src_id)
        dst = self.address_of(dst_id)
        if src == NULL or dst == NULL:
            raise StructureError("both endpoints must exist")
        raw = self.memory.read(src, VERTEX.size)
        degree = VERTEX.unpack_field(raw, "degree")
        if degree >= MAX_DEGREE:
            raise StructureError(
                f"vertex {src_id} already has {MAX_DEGREE} neighbors "
                "(fat-record cap)")
        self.memory.write(
            src + VERTEX.offset("nbrs", degree),
            int(dst).to_bytes(8, "little"))
        self.memory.write(
            src + VERTEX.offset("degree"),
            int(degree + 1).to_bytes(4, "little"))

    def address_of(self, vertex_id: int) -> int:
        return self._addresses.get(vertex_id, NULL)

    # -- iterators ----------------------------------------------------------
    def bfs_iterator(self, queue_capacity: int = 64,
                     max_visits: int = 256) -> GraphBfs:
        return GraphBfs(self, queue_capacity, max_visits)

    # -- reference (exact on any graph; tracks the kernel's semantics) -------
    def bfs_reference(self, root_id: int, queue_capacity: int = 64,
                      max_visits: int = 256) -> Tuple[int, int]:
        """Python model of the kernel, duplicates and caps included."""
        queue: List[int] = []
        used_slots = 0
        visited = 0
        total = 0
        current = self.address_of(root_id)
        if current == NULL:
            raise StructureError(f"no vertex with id {root_id}")
        while True:
            raw = self.memory.read(current, VERTEX.size)
            visited += 1
            total += VERTEX.unpack_field(raw, "value")
            degree = VERTEX.unpack_field(raw, "degree")
            nbrs = VERTEX.unpack_field(raw, "nbrs")
            for i in range(degree):
                if used_slots >= queue_capacity:
                    break
                queue.append(nbrs[i])
                used_slots += 1
            if visited >= max_visits or not queue:
                return visited, total
            current = queue.pop(0)
