"""Binary search tree: the paper's std::map port (Supp Listings 7/8).

The supplementary material shows STL's ``map::find`` reduces to
``_M_lower_bound(x, y, key)`` -- a two-pointer descent keeping the best
candidate ``y`` in the scratch pad while ``x`` walks down.  The kernel
here is that exact structure: ``sp[8]`` plays ``y``, cur_ptr plays ``x``,
and the traversal ends when ``x`` hits NULL, with found/not-found decided
by one final comparison at the client (as in STL, where the caller checks
``y->key == key``).

To keep that final check offloaded too, the kernel records the candidate
*key and value* in the scratch pad whenever ``y`` is updated, so
``finalize`` needs no extra remote read.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.iterator import PulseIterator
from repro.core.kernel import KernelBuilder
from repro.mem.layout import Field, StructLayout
from repro.structures.base import NULL, DisaggregatedStructure, StructureError

NODE = StructLayout("bst_node", [
    Field("key", "u64"),
    Field("value", "i64"),
    Field("left", "ptr"),
    Field("right", "ptr"),
])


class BstLowerBound(PulseIterator):
    """lower_bound(key): smallest key >= target, with its value.

    Scratch: [0:8) target, [8:16) candidate key, [16:24) candidate value,
    [24:32) candidate-found flag.
    """

    def __init__(self, root_of):
        self._root_of = root_of
        self.program = self._build()

    @staticmethod
    def _build():
        k = KernelBuilder("bst_lower_bound", scratch_bytes=32)
        # if node.key >= target: candidate = node; descend left
        k.compare(k.field(NODE, "key"), k.sp(0))
        k.jump_lt("go_right")
        k.move(k.sp(8), k.field(NODE, "key"))
        k.move(k.sp(16), k.field(NODE, "value"))
        k.move(k.sp(24), k.imm(1))
        k.compare(k.field(NODE, "left"), k.imm(NULL))
        k.jump_eq("done")
        k.move(k.cur_ptr(), k.field(NODE, "left"))
        k.next_iter()
        k.label("go_right")
        k.compare(k.field(NODE, "right"), k.imm(NULL))
        k.jump_eq("done")
        k.move(k.cur_ptr(), k.field(NODE, "right"))
        k.next_iter()
        k.label("done")
        k.ret()
        return k.build()

    def init(self, key: int) -> Tuple[int, bytes]:
        root = self._root_of()
        if root == NULL:
            raise StructureError("lower_bound on an empty tree")
        return root, int(key).to_bytes(8, "little")

    def finalize(self, scratch: bytes) -> Optional[Tuple[int, int]]:
        if int.from_bytes(scratch[24:32], "little") != 1:
            return None
        key = int.from_bytes(scratch[8:16], "little")
        value = int.from_bytes(scratch[16:24], "little", signed=True)
        return key, value


class BstFind(PulseIterator):
    """map::find(): lower_bound plus the equality check, all offloaded.

    Scratch layout matches :class:`BstLowerBound`; finalize returns the
    value only on an exact key match.
    """

    def __init__(self, root_of):
        self._root_of = root_of
        self._lower = BstLowerBound(root_of)
        self.program = self._lower.program

    def init(self, key: int) -> Tuple[int, bytes]:
        return self._lower.init(key)

    def finalize(self, scratch: bytes) -> Optional[int]:
        target = int.from_bytes(scratch[0:8], "little")
        candidate = self._lower.finalize(scratch)
        if candidate is None:
            return None
        key, value = candidate
        return value if key == target else None


class BinarySearchTree(DisaggregatedStructure):
    """An (unbalanced) BST; insert order controls its shape."""

    layout = NODE

    def __init__(self, memory, placement=None):
        super().__init__(memory, placement)
        self.root = NULL
        self.size = 0

    def insert(self, key: int, value: int) -> None:
        key = self.check_key(key)
        addr = self._alloc_node(NODE.size)
        self.memory.write(addr, NODE.pack(
            key=key, value=value, left=NULL, right=NULL))
        if self.root == NULL:
            self.root = addr
            self.size = 1
            return
        parent = self.root
        while True:
            raw = self.memory.read(parent, NODE.size)
            parent_key = NODE.unpack_field(raw, "key")
            if key == parent_key:
                self.memory.write(parent + NODE.offset("value"),
                                  int(value).to_bytes(8, "little",
                                                      signed=True))
                self.memory.free(addr)
                return
            side = "left" if key < parent_key else "right"
            child = NODE.unpack_field(raw, side)
            if child == NULL:
                self.memory.write_u64(parent + NODE.offset(side), addr)
                self.size += 1
                return
            parent = child

    def find_iterator(self) -> BstFind:
        return BstFind(lambda: self.root)

    def lower_bound_iterator(self) -> BstLowerBound:
        return BstLowerBound(lambda: self.root)
