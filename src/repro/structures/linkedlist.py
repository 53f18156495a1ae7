"""Singly linked list on disaggregated memory.

The simplest traversal target, used by the paper's sensitivity study
(Supp Fig 1: latency vs traversal length, cores vs bandwidth) because its
tiny per-iteration compute (eta ~ 0.06) stresses the memory pipeline.

Three iterators are provided:

* :class:`ListFind` -- the std::find port of Supp Listings 1/2;
* :class:`ListWalk` -- traverse exactly N hops (traversal-length bench);
* :class:`ListSum` -- stateful aggregation over the whole list, the
  minimal demonstration of scratch-pad state.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.iterator import PulseIterator
from repro.core.kernel import KernelBuilder
from repro.mem.layout import Field, StructLayout
from repro.structures.base import NULL, DisaggregatedStructure, StructureError

#: key @0, value @8, next @16 -- 24-byte node (pad with value_pad for
#: larger payloads via the ``value_bytes`` constructor argument)


def _node_layout(value_bytes: int) -> StructLayout:
    fields = [Field("key", "u64"), Field("value", "i64")]
    if value_bytes > 8:
        fields.append(Field("value_pad", "bytes", size=value_bytes - 8))
    fields.append(Field("next", "ptr"))
    return StructLayout("list_node", fields)


STATUS_NOT_FOUND = 0
STATUS_FOUND = 1


class ListFind(PulseIterator):
    """find(key): scratch = [key | value_out | status]."""

    def __init__(self, head_of, layout: StructLayout):
        self._head_of = head_of
        self.layout = layout
        self.program = self._build(layout)

    @staticmethod
    def _build(layout: StructLayout):
        k = KernelBuilder("list_find", scratch_bytes=24)
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
        k.move(k.sp(8), k.field(layout, "value"))
        k.move(k.sp(16), k.imm(STATUS_FOUND))
        k.ret()
        return k.build()

    def init(self, key: int) -> Tuple[int, bytes]:
        head = self._head_of()
        if head == NULL:
            raise StructureError("find on an empty list")
        return head, int(key).to_bytes(8, "little")

    def finalize(self, scratch: bytes) -> Optional[int]:
        if int.from_bytes(scratch[16:24], "little") != STATUS_FOUND:
            return None
        return int.from_bytes(scratch[8:16], "little", signed=True)


class ListWalk(PulseIterator):
    """Traverse exactly N hops; scratch = [remaining | last_key]."""

    def __init__(self, head_of, layout: StructLayout):
        self._head_of = head_of
        self.layout = layout
        self.program = self._build(layout)

    @staticmethod
    def _build(layout: StructLayout):
        k = KernelBuilder("list_walk", scratch_bytes=16)
        k.sub(k.sp(0), k.sp(0), k.imm(1))
        k.move(k.sp(8), k.field(layout, "key"))
        k.compare(k.sp(0), k.imm(0))
        k.jump_le("done")
        k.compare(k.field(layout, "next"), k.imm(NULL))
        k.jump_eq("done")
        k.move(k.cur_ptr(), k.field(layout, "next"))
        k.next_iter()
        k.label("done")
        k.ret()
        return k.build()

    def init(self, hops: int) -> Tuple[int, bytes]:
        head = self._head_of()
        if head == NULL:
            raise StructureError("walk on an empty list")
        if hops < 1:
            raise StructureError("walk needs at least one hop")
        return head, int(hops).to_bytes(8, "little")

    def finalize(self, scratch: bytes) -> int:
        """Key of the node where the walk stopped."""
        return int.from_bytes(scratch[8:16], "little")


class ListSum(PulseIterator):
    """Sum all values; scratch = [sum | count]."""

    def __init__(self, head_of, layout: StructLayout):
        self._head_of = head_of
        self.layout = layout
        self.program = self._build(layout)

    @staticmethod
    def _build(layout: StructLayout):
        k = KernelBuilder("list_sum", scratch_bytes=16)
        k.add(k.sp(0), k.sp(0), k.field(layout, "value"))
        k.add(k.sp(8), k.sp(8), k.imm(1))
        k.compare(k.field(layout, "next"), k.imm(NULL))
        k.jump_eq("done")
        k.move(k.cur_ptr(), k.field(layout, "next"))
        k.next_iter()
        k.label("done")
        k.ret()
        return k.build()

    def init(self) -> Tuple[int, bytes]:
        head = self._head_of()
        if head == NULL:
            raise StructureError("sum on an empty list")
        return head, bytes(16)

    def finalize(self, scratch: bytes) -> Tuple[int, int]:
        total = int.from_bytes(scratch[0:8], "little", signed=True)
        count = int.from_bytes(scratch[8:16], "little")
        return total, count


class LinkedList(DisaggregatedStructure):
    """A singly linked list built in rack memory."""

    def __init__(self, memory, value_bytes: int = 8, placement=None):
        super().__init__(memory, placement)
        if value_bytes < 8:
            raise StructureError("value_bytes must be >= 8")
        self.layout = _node_layout(value_bytes)
        self.head = NULL
        self.tail = NULL
        self.length = 0

    # -- construction (functional, zero simulated time) ------------------------
    def append(self, key: int, value: int) -> int:
        key = self.check_key(key)
        addr = self._alloc_node(self.layout.size)
        self.memory.write(addr, self.layout.pack(
            key=key, value=value, next=NULL))
        if self.tail != NULL:
            next_offset = self.layout.offset("next")
            self.memory.write_u64(self.tail + next_offset, addr)
        else:
            self.head = addr
        self.tail = addr
        self.length += 1
        return addr

    def extend(self, pairs) -> None:
        for key, value in pairs:
            self.append(key, value)

    # -- iterators ----------------------------------------------------------------
    def find_iterator(self) -> ListFind:
        return ListFind(lambda: self.head, self.layout)

    def walk_iterator(self) -> ListWalk:
        return ListWalk(lambda: self.head, self.layout)

    def sum_iterator(self) -> ListSum:
        return ListSum(lambda: self.head, self.layout)

    # -- reference implementations (for testing) ------------------------------------
    def find_reference(self, key: int) -> Optional[int]:
        addr = self.head
        next_offset = self.layout.offset("next")
        while addr != NULL:
            raw = self.memory.read(addr, self.layout.size)
            if self.layout.unpack_field(raw, "key") == key:
                return self.layout.unpack_field(raw, "value")
            addr = self.memory.read_u64(addr + next_offset)
        return None
