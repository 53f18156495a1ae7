"""Chained hash table on disaggregated memory (the paper's UPC workload).

Layout choices mirror the paper's stress setup: 8 B keys with 240 B values
by default, so a node is exactly 256 B -- the accelerator's maximum
aggregated LOAD -- and the bucket chains are long ("we used a high load
factor in our hash table to force longer traversals", Table 2 footnote).

Buckets are *sentinel nodes* (key = all-ones, never a valid key): the
client-side ``init()`` computes the hash and hands the accelerator a
pointer directly to the sentinel, exactly the paper's
``cur_ptr = bucket_ptr(hash(key))`` (Listing 3), without the client ever
dereferencing remote memory.

Partitioning: with ``partition_nodes=N`` the table places each bucket's
sentinel *and its whole chain* on node ``bucket % N``, which is why UPC
never triggers inter-node traversals in the multi-node experiments
(section 7.1).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.core.iterator import PulseIterator
from repro.core.kernel import KernelBuilder
from repro.mem.layout import Field, StructLayout
from repro.structures.base import NULL, DisaggregatedStructure, StructureError

#: sentinel key stored in bucket heads; reads as -1, never matches a key
SENTINEL_KEY = (1 << 64) - 1

STATUS_NOT_FOUND = 0
STATUS_FOUND = 1


def hash_u64(key: int) -> int:
    """Deterministic 64-bit mix (splitmix64 finalizer)."""
    x = (key + 0x9E3779B97F4A7C15) & (2**64 - 1)
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & (2**64 - 1)
    return x ^ (x >> 31)


def _node_layout(value_bytes: int) -> StructLayout:
    # Field order follows the paper's Listing 2: key, value, next.
    return StructLayout("hash_node", [
        Field("key", "u64"),
        Field("value", "bytes", size=value_bytes),
        Field("next", "ptr"),
    ])


class HashFind(PulseIterator):
    """unordered_map::find() -- the paper's Listing 3/4.

    Scratch: [0:8) search key, [8:16) status, [16:16+V) value out.
    """

    def __init__(self, bucket_of: Callable[[int], int],
                 layout: StructLayout):
        self._bucket_of = bucket_of
        self.layout = layout
        self.value_bytes = layout.field_size("value")
        self.program = self._build(layout, self.value_bytes)

    @staticmethod
    def _build(layout: StructLayout, value_bytes: int):
        k = KernelBuilder("hash_find", scratch_bytes=16 + value_bytes)
        k.compare(k.sp(0), k.field(layout, "key"))
        k.jump_eq("found")
        k.compare(k.field(layout, "next"), k.imm(NULL))
        k.jump_eq("notfound")
        k.move(k.cur_ptr(), k.field(layout, "next"))
        k.next_iter()
        k.label("notfound")
        k.move(k.sp(8), k.imm(STATUS_NOT_FOUND))
        k.ret()
        k.label("found")
        k.move(k.sp(8), k.imm(STATUS_FOUND))
        # The one-time wide copy lives on the terminal path, so it does
        # not count against the per-iteration compute budget (section 4.1).
        k.memcpy_field_to_sp(16, layout, "value")
        k.ret()
        return k.build()

    def init(self, key: int) -> Tuple[int, bytes]:
        return self._bucket_of(key), int(key).to_bytes(8, "little")

    def finalize(self, scratch: bytes) -> Optional[bytes]:
        if int.from_bytes(scratch[8:16], "little") != STATUS_FOUND:
            return None
        return bytes(scratch[16:16 + self.value_bytes])

    # -- split-index hooks ---------------------------------------------------
    indexable = True

    def index_key(self, key: int) -> int:
        return int(key)

    def index_window(self) -> Tuple[int, int]:
        # key + value; enough to re-check the key and decode the value.
        return 0, 8 + self.value_bytes

    def index_locate(self, response) -> Optional[int]:
        if int.from_bytes(response.scratch[8:16],
                          "little") != STATUS_FOUND:
            return None
        # The traversal halts on the matching node; cur_ptr names it.
        return response.cur_ptr

    def index_decode(self, key: int, raw: bytes):
        if int.from_bytes(raw[0:8], "little") != key:
            return False, None
        return True, bytes(raw[8:8 + self.value_bytes])


class HashUpdate(PulseIterator):
    """In-place 8-byte value update via the STORE write path.

    Scratch: [0:8) key, [8:16) new value head, [16:24) status.
    """

    def __init__(self, bucket_of: Callable[[int], int],
                 layout: StructLayout):
        self._bucket_of = bucket_of
        self.layout = layout
        self.program = self._build(layout)

    @staticmethod
    def _build(layout: StructLayout):
        value_offset = layout.offset("value")
        k = KernelBuilder("hash_update", scratch_bytes=24)
        k.compare(k.sp(0), k.field(layout, "key"))
        k.jump_eq("found")
        k.compare(k.field(layout, "next"), k.imm(NULL))
        k.jump_eq("notfound")
        k.move(k.cur_ptr(), k.field(layout, "next"))
        k.next_iter()
        k.label("notfound")
        k.move(k.sp(16), k.imm(STATUS_NOT_FOUND))
        k.ret()
        k.label("found")
        k.store(value_offset, k.sp(8, signed=False))
        k.move(k.sp(16), k.imm(STATUS_FOUND))
        k.ret()
        return k.build()

    def init(self, key: int, new_value: int) -> Tuple[int, bytes]:
        scratch = (int(key).to_bytes(8, "little")
                   + int(new_value).to_bytes(8, "little"))
        return self._bucket_of(key), scratch

    def finalize(self, scratch: bytes) -> bool:
        return int.from_bytes(scratch[16:24], "little") == STATUS_FOUND


class HashTable(DisaggregatedStructure):
    """A chained hash table with sentinel bucket heads."""

    def __init__(self, memory, buckets: int, value_bytes: int = 240,
                 partition_nodes: Optional[int] = None):
        super().__init__(memory)
        if buckets < 1:
            raise StructureError("need at least one bucket")
        if value_bytes < 8:
            raise StructureError("value_bytes must be >= 8")
        self.layout = _node_layout(value_bytes)
        self.value_bytes = value_bytes
        self.buckets = buckets
        self.partition_nodes = partition_nodes
        self.size = 0
        self._sentinels: List[int] = []
        for bucket in range(buckets):
            # One arena per bucket: the sentinel and every later insert
            # into the bucket share contiguous extents, so a chain walk
            # stays on one memory node until the extent spills.
            addr = self._alloc_node(
                self.layout.size, chain_hint=bucket,
                preferred_node=self._node_for_bucket(bucket))
            self.memory.write(addr, self.layout.pack(
                key=SENTINEL_KEY, next=NULL))
            self._sentinels.append(addr)

    def _node_for_bucket(self, bucket: int) -> Optional[int]:
        if self.partition_nodes is None:
            return None
        return bucket % self.partition_nodes

    def bucket_index(self, key: int) -> int:
        return hash_u64(key) % self.buckets

    def bucket_head(self, key: int) -> int:
        """The CPU-side bucket_ptr(hash(key)) of Listing 3."""
        return self._sentinels[self.bucket_index(key)]

    # -- construction ------------------------------------------------------------
    def insert(self, key: int, value: bytes) -> int:
        key = self.check_key(key)
        value = bytes(value)
        if len(value) > self.value_bytes:
            raise StructureError(
                f"value of {len(value)} B exceeds the {self.value_bytes} B "
                "slot")
        bucket = self.bucket_index(key)
        sentinel = self._sentinels[bucket]
        next_offset = self.layout.offset("next")
        first = self.memory.read_u64(sentinel + next_offset)
        addr = self._alloc_node(
            self.layout.size, chain_hint=bucket,
            preferred_node=self._node_for_bucket(bucket))
        self.memory.write(addr, self.layout.pack(
            key=key, next=first, value=value))
        self.memory.write_u64(sentinel + next_offset, addr)
        self.size += 1
        return addr

    # -- iterators ---------------------------------------------------------------
    def find_iterator(self) -> HashFind:
        return HashFind(self.bucket_head, self.layout)

    def update_iterator(self) -> HashUpdate:
        return HashUpdate(self.bucket_head, self.layout)

    def index_entries(self):
        """Yield (key, node vaddr) for every stored pair (bulk priming)."""
        next_offset = self.layout.offset("next")
        for sentinel in self._sentinels:
            addr = self.memory.read_u64(sentinel + next_offset)
            while addr != NULL:
                raw = self.memory.read(addr, self.layout.size)
                yield self.layout.unpack_field(raw, "key"), addr
                addr = self.layout.unpack_field(raw, "next")
