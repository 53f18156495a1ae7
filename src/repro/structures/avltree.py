"""AVL tree: the supplementary material's Boost intrusive-tree port.

Supp Listings 9/10 show Boost's ``avltree::find`` reducing to
``lower_bound_loop(x, y, key)`` -- structurally identical to STL map's
``_M_lower_bound``, differing only in comparison direction.  The value
of carrying a *balanced* tree in this repo is twofold: the traversal
kernel is exercised on logarithmic-depth trees regardless of insert
order (the plain BST degrades to a list), and the rebalancing code gives
the structure library a realistic mutation path.

Node layout::

    key:u64 | value:i64 | left:ptr | right:ptr | height:u32 | pad:u32

The find kernel reads only key/left/right, so its aggregated LOAD window
is the first 32 bytes -- a nice demonstration that the offload engine's
window inference trims trailing metadata the traversal never touches.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.iterator import PulseIterator
from repro.core.kernel import KernelBuilder
from repro.mem.layout import Field, StructLayout
from repro.structures.base import NULL, DisaggregatedStructure, StructureError

NODE = StructLayout("avl_node", [
    Field("key", "u64"),
    Field("value", "i64"),
    Field("left", "ptr"),
    Field("right", "ptr"),
    Field("height", "u32"),
    Field("pad", "u32"),
])

STATUS_NOT_FOUND = 0
STATUS_FOUND = 1


class AvlFind(PulseIterator):
    """avltree::find via the lower_bound_loop structure (Listing 10).

    Scratch: [0:8) target, [8:16) value out, [16:24) status.
    """

    def __init__(self, root_of):
        self._root_of = root_of
        self.program = self._build()

    @staticmethod
    def _build():
        k = KernelBuilder("avl_find", scratch_bytes=24)
        k.compare(k.field(NODE, "key"), k.sp(0))
        k.jump_eq("found")
        k.jump_lt("go_right")
        # node.key > target: descend left
        k.compare(k.field(NODE, "left"), k.imm(NULL))
        k.jump_eq("notfound")
        k.move(k.cur_ptr(), k.field(NODE, "left"))
        k.next_iter()
        k.label("go_right")
        k.compare(k.field(NODE, "right"), k.imm(NULL))
        k.jump_eq("notfound")
        k.move(k.cur_ptr(), k.field(NODE, "right"))
        k.next_iter()
        k.label("notfound")
        k.move(k.sp(16), k.imm(STATUS_NOT_FOUND))
        k.ret()
        k.label("found")
        k.move(k.sp(8), k.field(NODE, "value"))
        k.move(k.sp(16), k.imm(STATUS_FOUND))
        k.ret()
        return k.build()

    def init(self, key: int) -> Tuple[int, bytes]:
        root = self._root_of()
        if root == NULL:
            raise StructureError("find on an empty AVL tree")
        return root, int(key).to_bytes(8, "little")

    def finalize(self, scratch: bytes) -> Optional[int]:
        if int.from_bytes(scratch[16:24], "little") != STATUS_FOUND:
            return None
        return int.from_bytes(scratch[8:16], "little", signed=True)


class AvlTree(DisaggregatedStructure):
    """A height-balanced binary search tree in rack memory."""

    layout = NODE

    def __init__(self, memory, placement=None):
        super().__init__(memory, placement)
        self.root = NULL
        self.size = 0

    # -- node IO ------------------------------------------------------------
    def _read(self, addr: int) -> dict:
        return NODE.unpack(self.memory.read(addr, NODE.size))

    def _write(self, addr: int, key: int, value: int, left: int,
               right: int, height: int) -> None:
        self.memory.write(addr, NODE.pack(
            key=key, value=value, left=left, right=right,
            height=height))

    def _height(self, addr: int) -> int:
        if addr == NULL:
            return 0
        return self._read(addr)["height"]

    def _update_height(self, addr: int) -> None:
        node = self._read(addr)
        height = 1 + max(self._height(node["left"]),
                         self._height(node["right"]))
        self.memory.write(addr + NODE.offset("height"),
                          int(height).to_bytes(4, "little"))

    def _balance_factor(self, addr: int) -> int:
        node = self._read(addr)
        return (self._height(node["left"])
                - self._height(node["right"]))

    # -- rotations ------------------------------------------------------------
    def _rotate_right(self, addr: int) -> int:
        node = self._read(addr)
        pivot = node["left"]
        pivot_node = self._read(pivot)
        self.memory.write_u64(addr + NODE.offset("left"),
                              pivot_node["right"])
        self.memory.write_u64(pivot + NODE.offset("right"), addr)
        self._update_height(addr)
        self._update_height(pivot)
        return pivot

    def _rotate_left(self, addr: int) -> int:
        node = self._read(addr)
        pivot = node["right"]
        pivot_node = self._read(pivot)
        self.memory.write_u64(addr + NODE.offset("right"),
                              pivot_node["left"])
        self.memory.write_u64(pivot + NODE.offset("left"), addr)
        self._update_height(addr)
        self._update_height(pivot)
        return pivot

    def _rebalance(self, addr: int) -> int:
        self._update_height(addr)
        balance = self._balance_factor(addr)
        if balance > 1:
            node = self._read(addr)
            if self._balance_factor(node["left"]) < 0:
                rotated = self._rotate_left(node["left"])
                self.memory.write_u64(addr + NODE.offset("left"),
                                      rotated)
            return self._rotate_right(addr)
        if balance < -1:
            node = self._read(addr)
            if self._balance_factor(node["right"]) > 0:
                rotated = self._rotate_right(node["right"])
                self.memory.write_u64(addr + NODE.offset("right"),
                                      rotated)
            return self._rotate_left(addr)
        return addr

    # -- insert ----------------------------------------------------------------
    def insert(self, key: int, value: int) -> None:
        key = self.check_key(key)
        self.root = self._insert_into(self.root, key, value)

    def _insert_into(self, addr: int, key: int, value: int) -> int:
        if addr == NULL:
            new = self._alloc_node(NODE.size)
            self._write(new, key, value, NULL, NULL, 1)
            self.size += 1
            return new
        node = self._read(addr)
        if key == node["key"]:
            self.memory.write(addr + NODE.offset("value"),
                              int(value).to_bytes(8, "little",
                                                  signed=True))
            return addr
        if key < node["key"]:
            child = self._insert_into(node["left"], key, value)
            self.memory.write_u64(addr + NODE.offset("left"), child)
        else:
            child = self._insert_into(node["right"], key, value)
            self.memory.write_u64(addr + NODE.offset("right"), child)
        return self._rebalance(addr)

    # -- iterators ---------------------------------------------------
    def find_iterator(self) -> AvlFind:
        return AvlFind(lambda: self.root)
