"""Skip list on disaggregated memory.

A deliberately pointer-rich structure exercising the iterator interface
beyond the paper's three workloads.  The pulse ISA cannot dereference a
*neighbor* node inside an iteration (one aggregated LOAD per iteration,
section 4.1), so nodes are "fat": for every level they store both the
next pointer *and the next node's key*::

    key | value | next_key[L] | next_ptr[L]

The find kernel then decides, from the current node alone, the highest
level whose successor key is still <= target, and hops there -- the
classic skip-list descent, one node load per hop.  Level checks are
unrolled (bounded loops only).

Fat nodes are a real technique for exactly this situation (pointer
chasing engines that cannot peek); the duplicated keys are maintained at
insert time.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

from repro.core.iterator import PulseIterator
from repro.core.kernel import KernelBuilder
from repro.mem.layout import Field, StructLayout
from repro.structures.base import NULL, DisaggregatedStructure, StructureError

#: key larger than any valid key (valid keys are < 2^63)
INFINITE_KEY = (1 << 64) - 1

STATUS_NOT_FOUND = 0
STATUS_FOUND = 1


def _node_layout(levels: int) -> StructLayout:
    return StructLayout("skip_node", [
        Field("key", "u64"),
        Field("value", "i64"),
        Field("next_key", "u64", count=levels),
        Field("next_ptr", "u64", count=levels),
    ])


class SkipFind(PulseIterator):
    """find(key) descending from the top level.

    Scratch: [0:8) target, [8:16) value out, [16:24) status.
    Per iteration: take the highest level whose successor key is
    <= target; if none and the current key matches, done.
    """

    def __init__(self, head_of, layout: StructLayout, levels: int):
        self._head_of = head_of
        self.layout = layout
        self.program = self._build(layout, levels)

    @staticmethod
    def _build(layout: StructLayout, levels: int):
        k = KernelBuilder("skip_find", scratch_bytes=24)
        # Highest level first: hop as far as possible per iteration.
        for level in reversed(range(levels)):
            # successor key <= target and successor exists -> hop
            k.compare(k.field(layout, "next_ptr", level), k.imm(NULL))
            k.jump_eq(f"lower_{level}")
            k.compare(k.field(layout, "next_key", level), k.sp(0))
            k.jump_gt(f"lower_{level}")
            k.move(k.cur_ptr(), k.field(layout, "next_ptr", level))
            k.next_iter()
            k.label(f"lower_{level}")
        # No hop possible anywhere: we are at the last node <= target.
        k.compare(k.field(layout, "key"), k.sp(0))
        k.jump_eq("found")
        k.move(k.sp(16), k.imm(STATUS_NOT_FOUND))
        k.ret()
        k.label("found")
        k.move(k.sp(8), k.field(layout, "value"))
        k.move(k.sp(16), k.imm(STATUS_FOUND))
        k.ret()
        return k.build()

    def init(self, key: int) -> Tuple[int, bytes]:
        head = self._head_of()
        if head == NULL:
            raise StructureError("find on an empty skip list")
        return head, int(key).to_bytes(8, "little")

    def finalize(self, scratch: bytes) -> Optional[int]:
        if int.from_bytes(scratch[16:24], "little") != STATUS_FOUND:
            return None
        return int.from_bytes(scratch[8:16], "little", signed=True)

    # -- split-index hooks ---------------------------------------------------
    indexable = True

    def index_key(self, key: int) -> int:
        return int(key)

    def index_window(self) -> Tuple[int, int]:
        # key + value of the bottom-lane node.
        return 0, 16

    def index_locate(self, response) -> Optional[int]:
        if int.from_bytes(response.scratch[16:24],
                          "little") != STATUS_FOUND:
            return None
        # The descent halts on the matching node.
        return response.cur_ptr

    def index_decode(self, key: int, raw: bytes):
        if int.from_bytes(raw[0:8], "little") != key:
            return False, None
        return True, int.from_bytes(raw[8:16], "little", signed=True)


class SkipList(DisaggregatedStructure):
    """A skip list with fat nodes and a sentinel head."""

    #: express lanes per node
    levels = 4

    def __init__(self, memory, seed: int = 0, placement=None):
        super().__init__(memory, placement)
        self.layout = _node_layout(self.levels)
        self._rng = random.Random(seed)
        self.size = 0
        # Sentinel head: key smaller than all valid keys is impossible
        # (0 is valid), so the head uses key=0 semantics carefully: we
        # never match the head because its status path requires equality
        # with a found node; give it an impossible key via the sign bit.
        self.head = self._alloc_node(self.layout.size)
        self.memory.write(self.head, self.layout.pack(
            key=INFINITE_KEY,  # reads as -1: smaller than any valid key
            value=0,
            next_key=[0] * self.levels,
            next_ptr=[NULL] * self.levels,
        ))

    def _random_height(self) -> int:
        height = 1
        while height < self.levels and self._rng.random() < 0.5:
            height += 1
        return height

    # -- construction -------------------------------------------------------------
    def insert(self, key: int, value: int) -> None:
        key = self.check_key(key)
        update = self._find_predecessors(key)
        node0 = update[0]
        succ0_ptr, succ0_key = self._successor(node0, 0)
        if succ0_ptr != NULL and succ0_key == key:
            # Overwrite in place.
            self.memory.write(
                succ0_ptr + self.layout.offset("value"),
                int(value).to_bytes(8, "little", signed=True))
            return

        height = self._random_height()
        addr = self._alloc_node(self.layout.size)
        next_keys = [0] * self.levels
        next_ptrs = [NULL] * self.levels
        for level in range(height):
            ptr, succ_key = self._successor(update[level], level)
            next_ptrs[level] = ptr
            next_keys[level] = succ_key
        self.memory.write(addr, self.layout.pack(
            key=key, value=value,
            next_key=next_keys, next_ptr=next_ptrs))
        for level in range(height):
            self._set_successor(update[level], level, addr, key)
        self.size += 1

    def _find_predecessors(self, key: int):
        update = [self.head] * self.levels
        node = self.head
        for level in reversed(range(self.levels)):
            while True:
                ptr, succ_key = self._successor(node, level)
                if ptr == NULL or succ_key >= key:
                    break
                node = ptr
            update[level] = node
        return update

    def _successor(self, addr: int, level: int) -> Tuple[int, int]:
        raw = self.memory.read(addr, self.layout.size)
        ptrs = self.layout.unpack_field(raw, "next_ptr")
        keys = self.layout.unpack_field(raw, "next_key")
        return ptrs[level], keys[level]

    def _set_successor(self, addr: int, level: int, succ_addr: int,
                       succ_key: int) -> None:
        self.memory.write_u64(
            addr + self.layout.offset("next_ptr", level), succ_addr)
        self.memory.write_u64(
            addr + self.layout.offset("next_key", level), succ_key)

    # -- iterators -----------------------------------------------------------------
    def find_iterator(self) -> SkipFind:
        return SkipFind(lambda: self.head, self.layout, self.levels)

    def index_entries(self):
        """Yield (key, node vaddr) via the bottom lane (bulk priming)."""
        ptr, _ = self._successor(self.head, 0)
        while ptr != NULL:
            raw = self.memory.read(ptr, self.layout.size)
            yield self.layout.unpack_field(raw, "key"), ptr
            ptr = self.layout.unpack_field(raw, "next_ptr")[0]
