"""B+Tree on disaggregated memory (the paper's TC and TSV workloads).

One node layout serves internal nodes and leaves::

    flags:u32 | count:u32 | keys[F]:u64 | ptrs[F+1]:u64

* internal: ``ptrs[0..count]`` are children; ``keys[i]`` separates
  subtree ``i`` from subtree ``i+1`` (descend to the first child ``i``
  with ``target < keys[i]``, else child ``count``);
* leaf: ``ptrs[i]`` holds the value for ``keys[i]`` (an inline signed
  64-bit payload, or a pointer to an out-of-line record), and
  ``ptrs[F]`` links to the next leaf -- the pointer the scan kernels
  chase.

Kernels are *unrolled* over the fanout: the pulse ISA forbids unbounded
loops within an iteration (section 3.1), and a bounded per-node key scan
unfolds to a constant instruction count, exactly the paper's requirement.
Fanout therefore directly sets the workload's eta (Table 2): TC uses
fanout 12 (eta ~ 0.8), TSV uses fanout 8 with inline values (eta ~ 0.9).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.iterator import PulseIterator
from repro.core.kernel import KernelBuilder
from repro.mem.layout import Field, StructLayout
from repro.structures.base import NULL, DisaggregatedStructure, StructureError

LEAF_FLAG = 1

STATUS_NOT_FOUND = 0
STATUS_FOUND = 1

#: signed-min/max seeds for MIN/MAX aggregations
I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1


def _node_layout(fanout: int) -> StructLayout:
    return StructLayout("btree_node", [
        Field("flags", "u32"),
        Field("count", "u32"),
        Field("keys", "u64", count=fanout),
        Field("ptrs", "u64", count=fanout + 1),
    ])


def _emit_descend(k: KernelBuilder, layout: StructLayout, fanout: int,
                  key_sp_offset: int) -> None:
    """Internal-node step: pick the child and start the next iteration.

    Assumes flags were already checked (we are at an internal node).
    Jumps to ``child_<i>`` blocks that it also emits; execution never
    falls through past them because every block ends in NEXT_ITER.
    """
    for i in range(fanout):
        k.compare(k.imm(i), k.field(layout, "count"))
        k.jump_ge(f"child_{i}")
        k.compare(k.sp(key_sp_offset), k.field(layout, "keys", i))
        k.jump_lt(f"child_{i}")
    k.label(f"child_{fanout}")
    k.move(k.cur_ptr(), k.field(layout, "ptrs", fanout))
    k.next_iter()
    for i in range(fanout):
        k.label(f"child_{i}")
        k.move(k.cur_ptr(), k.field(layout, "ptrs", i))
        k.next_iter()


class BTreeLookup(PulseIterator):
    """Point lookup. Scratch: [0:8) key, [8:16) value, [16:24) status."""

    def __init__(self, root_of: Callable[[], int], layout: StructLayout,
                 fanout: int):
        self._root_of = root_of
        self.layout = layout
        self.program = self._build(layout, fanout)

    @staticmethod
    def _build(layout: StructLayout, fanout: int):
        k = KernelBuilder("btree_lookup", scratch_bytes=24)
        k.compare(k.field(layout, "flags"), k.imm(LEAF_FLAG))
        k.jump_eq("leaf")
        _emit_descend(k, layout, fanout, key_sp_offset=0)
        k.label("leaf")
        for i in range(fanout):
            k.compare(k.imm(i), k.field(layout, "count"))
            k.jump_ge("notfound")
            k.compare(k.sp(0), k.field(layout, "keys", i))
            k.jump_eq(f"found_{i}")
            k.jump_lt("notfound")  # keys sorted: passed the slot
        k.label("notfound")
        k.move(k.sp(16), k.imm(STATUS_NOT_FOUND))
        k.ret()
        for i in range(fanout):
            k.label(f"found_{i}")
            k.move(k.sp(8), k.field(layout, "ptrs", i))
            k.move(k.sp(16), k.imm(STATUS_FOUND))
            k.ret()
        return k.build()

    def init(self, key: int) -> Tuple[int, bytes]:
        root = self._root_of()
        if root == NULL:
            raise StructureError("lookup on an empty tree")
        return root, int(key).to_bytes(8, "little")

    def finalize(self, scratch: bytes) -> Optional[int]:
        if int.from_bytes(scratch[16:24], "little") != STATUS_FOUND:
            return None
        return int.from_bytes(scratch[8:16], "little")

    # -- split-index hooks ---------------------------------------------------
    indexable = True

    def index_key(self, key: int) -> int:
        return int(key)

    def index_window(self) -> Tuple[int, int]:
        # The whole leaf: a direct read re-runs the in-leaf key scan.
        return 0, self.layout.size

    def index_locate(self, response) -> Optional[int]:
        if int.from_bytes(response.scratch[16:24],
                          "little") != STATUS_FOUND:
            return None
        # The lookup halts on the leaf holding the key.
        return response.cur_ptr

    def index_decode(self, key: int, raw: bytes):
        node = self.layout.unpack(raw)
        if not node["flags"] & LEAF_FLAG:
            return False, None
        for i in range(node["count"]):
            if node["keys"][i] == key:
                return True, node["ptrs"][i]
        # A split since learn time may have moved the key rightward.
        return False, None


class BTreeScanCollect(PulseIterator):
    """Range scan collecting matching keys into the scratch pad.

    Scratch: [0:8) start key, [8:16) limit, [16:24) collected,
    [32:...) collected keys.  Sized for ``limit`` plus one leaf of
    overshoot; keep limits modest (the 4 KB scratch pad bounds them --
    the paper's scratch-bounded expressiveness tradeoff, Supp B).
    """

    HEADER = 32

    def __init__(self, root_of: Callable[[], int], layout: StructLayout,
                 fanout: int, limit: int):
        self._root_of = root_of
        self.layout = layout
        self.limit = limit
        self.fanout = fanout
        scratch = self.HEADER + 8 * (limit + fanout)
        self.program = self._build(layout, fanout, scratch)

    @classmethod
    def _build(cls, layout: StructLayout, fanout: int, scratch: int):
        k = KernelBuilder("btree_scan_collect", scratch_bytes=scratch)
        k.compare(k.field(layout, "flags"), k.imm(LEAF_FLAG))
        k.jump_eq("leaf")
        _emit_descend(k, layout, fanout, key_sp_offset=0)
        k.label("leaf")
        # r2 = scratch write cursor, rebuilt from the collected count
        # (registers do not survive inter-node continuations; scratch
        # does -- section 5).
        k.mul(k.reg(2), k.sp(16), k.imm(8))
        k.add(k.reg(2), k.reg(2), k.imm(cls.HEADER))
        for i in range(fanout):
            k.compare(k.imm(i), k.field(layout, "count"))
            k.jump_ge("leaf_done")
            k.compare(k.field(layout, "keys", i), k.sp(0))
            k.jump_lt(f"skip_{i}")
            k.move(k.sp_at(2), k.field(layout, "keys", i))
            k.add(k.reg(2), k.reg(2), k.imm(8))
            k.label(f"skip_{i}")
        k.label("leaf_done")
        k.sub(k.reg(3), k.reg(2), k.imm(cls.HEADER))
        k.div(k.reg(3), k.reg(3), k.imm(8))
        k.move(k.sp(16), k.reg(3))
        k.compare(k.reg(3), k.sp(8))
        k.jump_ge("done")
        k.compare(k.field(layout, "ptrs", fanout), k.imm(NULL))
        k.jump_eq("done")
        k.move(k.cur_ptr(), k.field(layout, "ptrs", fanout))
        k.next_iter()
        k.label("done")
        k.ret()
        return k.build()

    def init(self, start_key: int) -> Tuple[int, bytes]:
        root = self._root_of()
        if root == NULL:
            raise StructureError("scan on an empty tree")
        scratch = (int(start_key).to_bytes(8, "little")
                   + int(self.limit).to_bytes(8, "little"))
        return root, scratch

    def finalize(self, scratch: bytes) -> List[int]:
        collected = int.from_bytes(scratch[16:24], "little")
        collected = min(collected, self.limit)
        keys = []
        for i in range(collected):
            offset = self.HEADER + 8 * i
            keys.append(int.from_bytes(scratch[offset:offset + 8],
                                       "little"))
        return keys


class BTreeScanCount(PulseIterator):
    """Range scan counting/checksumming matches (the TC workload form).

    YCSB-E adaptation: record payloads cannot stream through the bounded
    scratch pad, so the offloaded scan returns the match count and a key
    checksum; record pointers are in the leaves for follow-up point
    reads.  Scratch: [0:8) start, [8:16) limit, [16:24) count,
    [24:32) checksum.
    """

    def __init__(self, root_of: Callable[[], int], layout: StructLayout,
                 fanout: int, limit: int):
        self._root_of = root_of
        self.layout = layout
        self.limit = limit
        self.program = self._build(layout, fanout)

    @staticmethod
    def _build(layout: StructLayout, fanout: int):
        k = KernelBuilder("btree_scan_count", scratch_bytes=32)
        k.compare(k.field(layout, "flags"), k.imm(LEAF_FLAG))
        k.jump_eq("leaf")
        _emit_descend(k, layout, fanout, key_sp_offset=0)
        k.label("leaf")
        for i in range(fanout):
            k.compare(k.imm(i), k.field(layout, "count"))
            k.jump_ge("leaf_done")
            k.compare(k.field(layout, "keys", i), k.sp(0))
            k.jump_lt(f"skip_{i}")
            k.add(k.sp(16), k.sp(16), k.imm(1))
            k.add(k.sp(24), k.sp(24), k.field(layout, "keys", i))
            k.label(f"skip_{i}")
        k.label("leaf_done")
        k.compare(k.sp(16), k.sp(8))
        k.jump_ge("done")
        k.compare(k.field(layout, "ptrs", fanout), k.imm(NULL))
        k.jump_eq("done")
        k.move(k.cur_ptr(), k.field(layout, "ptrs", fanout))
        k.next_iter()
        k.label("done")
        k.ret()
        return k.build()

    def init(self, start_key: int) -> Tuple[int, bytes]:
        root = self._root_of()
        if root == NULL:
            raise StructureError("scan on an empty tree")
        scratch = (int(start_key).to_bytes(8, "little")
                   + int(self.limit).to_bytes(8, "little"))
        return root, scratch

    def finalize(self, scratch: bytes) -> Tuple[int, int]:
        count = int.from_bytes(scratch[16:24], "little")
        checksum = int.from_bytes(scratch[24:32], "little")
        return count, checksum


class BTreeAggregate(PulseIterator):
    """Range aggregation over inline i64 values (the TSV workload).

    ``op`` is one of sum/avg/min/max; the paper's client picks one per
    request.  Scratch: [0:8) t0, [8:16) t1, [16:24) accumulator,
    [24:32) count.  AVG divides at the client (sum+count offloaded).
    """

    OPS = ("sum", "avg", "min", "max")

    def __init__(self, root_of: Callable[[], int], layout: StructLayout,
                 fanout: int, op: str):
        if op not in self.OPS:
            raise StructureError(f"unknown aggregation {op!r}")
        self._root_of = root_of
        self.layout = layout
        self.op = op
        self.program = self._build(layout, fanout, op)

    @staticmethod
    def _build(layout: StructLayout, fanout: int, op: str):
        k = KernelBuilder(f"btree_agg_{op}", scratch_bytes=32)
        k.compare(k.field(layout, "flags"), k.imm(LEAF_FLAG))
        k.jump_eq("leaf")
        _emit_descend(k, layout, fanout, key_sp_offset=0)
        k.label("leaf")
        for i in range(fanout):
            k.compare(k.imm(i), k.field(layout, "count"))
            k.jump_ge("leaf_done")
            k.compare(k.field(layout, "keys", i), k.sp(8))
            k.jump_ge("finished")          # ts >= t1: range exhausted
            k.compare(k.field(layout, "keys", i), k.sp(0))
            k.jump_lt(f"skip_{i}")         # ts < t0: before the window
            if op in ("sum", "avg"):
                k.add(k.sp(16), k.sp(16), k.field(layout, "ptrs", i))
            elif op == "min":
                k.compare(k.field(layout, "ptrs", i), k.sp(16))
                k.jump_ge(f"skip_{i}")
                k.move(k.sp(16), k.field(layout, "ptrs", i))
            else:  # max
                k.compare(k.field(layout, "ptrs", i), k.sp(16))
                k.jump_le(f"skip_{i}")
                k.move(k.sp(16), k.field(layout, "ptrs", i))
            if op == "avg":
                k.add(k.sp(24), k.sp(24), k.imm(1))
            k.label(f"skip_{i}")
        k.label("leaf_done")
        k.compare(k.field(layout, "ptrs", fanout), k.imm(NULL))
        k.jump_eq("finished")
        k.move(k.cur_ptr(), k.field(layout, "ptrs", fanout))
        k.next_iter()
        k.label("finished")
        k.ret()
        return k.build()

    def init(self, t0: int, t1: int) -> Tuple[int, bytes]:
        root = self._root_of()
        if root == NULL:
            raise StructureError("aggregate on an empty tree")
        seed = 0
        if self.op == "min":
            seed = I64_MAX
        elif self.op == "max":
            seed = I64_MIN
        scratch = (int(t0).to_bytes(8, "little")
                   + int(t1).to_bytes(8, "little")
                   + seed.to_bytes(8, "little", signed=True))
        return root, scratch

    def finalize(self, scratch: bytes):
        acc = int.from_bytes(scratch[16:24], "little", signed=True)
        count = int.from_bytes(scratch[24:32], "little")
        if self.op == "avg":
            return acc / count if count else None
        if self.op == "min" and acc == I64_MAX:
            return None
        if self.op == "max" and acc == I64_MIN:
            return None
        return acc


class BPlusTree(DisaggregatedStructure):
    """A B+Tree built in rack memory, bulk-loadable and insertable."""

    def __init__(self, memory, fanout: int = 12, placement=None,
                 key_placement: Optional[Callable[[int], Optional[int]]]
                 = None):
        """``key_placement`` maps a node's minimum key to a memory node.

        This is how the partitioned allocation policy of Supp Fig 2 keeps
        whole key-range subtrees on one memory node; ``placement`` (by
        allocation ordinal, from the base class) models glibc-style
        interleaved allocation instead.
        """
        super().__init__(memory, placement)
        if fanout < 3:
            raise StructureError("fanout must be >= 3")
        self.fanout = fanout
        self.layout = _node_layout(fanout)
        self.key_placement = key_placement
        self.root = NULL
        self.size = 0

    def _preferred_node(self, min_key: int) -> Optional[int]:
        if self.key_placement is not None:
            return self.key_placement(min_key)
        if self._placement is not None:
            return self._placement(self._alloc_ordinal)
        return None

    def _alloc_tree_node(self, min_key: int, chain_hint=("leaves",)) -> int:
        # Arena per (chain, resolved node): bulk-loaded leaves fill one
        # arena in key order -- consecutive leaves and their next_leaf
        # chain stay extent-contiguous -- and each internal level gets
        # its own arena, so the root-side levels every traversal crosses
        # cluster into a few migratable extents.
        node = self._preferred_node(min_key)
        self._alloc_ordinal += 1
        arena = self.memory.arena(self._structure_id, chain_hint,
                                  preferred_node=node)
        return arena.alloc(self.layout.size)

    # -- node IO -------------------------------------------------------------
    def _write_node(self, addr: int, is_leaf: bool, keys: Sequence[int],
                    ptrs: Sequence[int], next_leaf: int = NULL) -> None:
        full_ptrs = list(ptrs) + [0] * (self.fanout + 1 - len(ptrs))
        if is_leaf:
            full_ptrs[self.fanout] = next_leaf
        self.memory.write(addr, self.layout.pack(
            flags=LEAF_FLAG if is_leaf else 0,
            count=len(keys),
            keys=list(keys),
            ptrs=full_ptrs,
        ))

    def _read_node(self, addr: int) -> dict:
        raw = self.memory.read(addr, self.layout.size)
        return self.layout.unpack(raw)

    # -- bulk load --------------------------------------------------------------
    def bulk_load(self, pairs: Sequence[Tuple[int, int]],
                  fill_factor: float = 1.0,
                  leaf_hook=None) -> None:
        """Build from sorted (key, value) pairs; values are u64 payloads.

        ``fill_factor`` < 1 leaves slack in leaves, matching how a real
        B+Tree that grew by insertion looks (and lengthening traversals).

        ``leaf_hook(chunk, preferred_node)`` is called before each leaf
        allocation; returning a list replaces the chunk's values.  The
        workload builders use it to allocate the out-of-line record
        payload of each entry *interleaved* with the leaves, exactly how
        a general-purpose allocator lays a grown index out in memory --
        which is what denies the paging baseline spatial locality across
        consecutive leaves (section 7.1's Fig 4/5 behaviour).
        """
        if self.root != NULL:
            raise StructureError("tree already built")
        if not pairs:
            raise StructureError("bulk_load needs at least one pair")
        if not 0.0 < fill_factor <= 1.0:
            raise StructureError("fill_factor must be in (0, 1]")
        keys = [p[0] for p in pairs]
        if any(keys[i] >= keys[i + 1] for i in range(len(keys) - 1)):
            raise StructureError("bulk_load requires strictly sorted keys")

        per_leaf = max(1, int(self.fanout * fill_factor))
        # Leaves, linked left to right.
        leaves: List[Tuple[int, int]] = []  # (min key, addr)
        addrs = []
        for start in range(0, len(pairs), per_leaf):
            chunk = pairs[start:start + per_leaf]
            if leaf_hook is not None:
                replaced = leaf_hook(chunk,
                                     self._preferred_node(chunk[0][0]))
                if replaced is not None:
                    if len(replaced) != len(chunk):
                        raise StructureError(
                            "leaf_hook must return one value per entry")
                    chunk = [(key, value) for (key, _), value
                             in zip(chunk, replaced)]
            addr = self._alloc_tree_node(chunk[0][0])
            addrs.append((addr, chunk))
            leaves.append((chunk[0][0], addr))
        for i, (addr, chunk) in enumerate(addrs):
            nxt = addrs[i + 1][0] if i + 1 < len(addrs) else NULL
            self._write_node(addr, True,
                             [k for k, _ in chunk],
                             [self._as_u64(v) for _, v in chunk],
                             next_leaf=nxt)

        # Internal levels, bottom up.
        level = leaves
        height = 1
        while len(level) > 1:
            parent_level: List[Tuple[int, int]] = []
            group = self.fanout + 1
            for start in range(0, len(level), group):
                chunk = level[start:start + group]
                addr = self._alloc_tree_node(chunk[0][0],
                                             chain_hint=("level", height))
                self._write_node(
                    addr, False,
                    [min_key for min_key, _ in chunk[1:]],
                    [node_addr for _, node_addr in chunk])
                parent_level.append((chunk[0][0], addr))
            level = parent_level
            height += 1
        self.root = level[0][1]
        self.size = len(pairs)

    @staticmethod
    def _as_u64(value: int) -> int:
        return int(value) & (2**64 - 1)

    # -- insert (functional) ----------------------------------------------------
    def insert(self, key: int, value: int) -> None:
        """Standard top-down insert with leaf/internal splits."""
        key = self.check_key(key)
        if self.root == NULL:
            addr = self._alloc_node(self.layout.size,
                                    chain_hint=("leaves",))
            self._write_node(addr, True, [key], [self._as_u64(value)])
            self.root = addr
            self.size = 1
            return
        split = self._insert_into(self.root, key, value)
        if split is not None:
            sep_key, right_addr = split
            new_root = self._alloc_node(self.layout.size,
                                        chain_hint=("internal",))
            self._write_node(new_root, False, [sep_key],
                             [self.root, right_addr])
            self.root = new_root
        self.size += 1

    def _insert_into(self, addr: int, key: int,
                     value: int) -> Optional[Tuple[int, int]]:
        node = self._read_node(addr)
        keys = list(node["keys"])[:node["count"]]
        ptrs = list(node["ptrs"])
        if node["flags"] & LEAF_FLAG:
            values = ptrs[:node["count"]]
            next_leaf = ptrs[self.fanout]
            position = self._position(keys, key)
            if position < len(keys) and keys[position] == key:
                values[position] = self._as_u64(value)
                self._write_node(addr, True, keys, values, next_leaf)
                self.size -= 1  # overwritten, not grown
                return None
            keys.insert(position, key)
            values.insert(position, self._as_u64(value))
            if len(keys) <= self.fanout:
                self._write_node(addr, True, keys, values, next_leaf)
                return None
            # Split the leaf.
            mid = len(keys) // 2
            right = self._alloc_node(self.layout.size,
                                     chain_hint=("leaves",))
            self._write_node(right, True, keys[mid:], values[mid:],
                             next_leaf)
            self._write_node(addr, True, keys[:mid], values[:mid], right)
            return keys[mid], right

        children = ptrs[:node["count"] + 1]
        child_index = self._child_index(keys, key)
        split = self._insert_into(children[child_index], key, value)
        if split is None:
            return None
        sep_key, right_addr = split
        keys.insert(child_index, sep_key)
        children.insert(child_index + 1, right_addr)
        if len(keys) <= self.fanout:
            self._write_node(addr, False, keys, children)
            return None
        mid = len(keys) // 2
        right = self._alloc_node(self.layout.size,
                                 chain_hint=("internal",))
        self._write_node(right, False, keys[mid + 1:],
                         children[mid + 1:])
        self._write_node(addr, False, keys[:mid], children[:mid + 1])
        return keys[mid], right

    @staticmethod
    def _position(keys: List[int], key: int) -> int:
        for i, existing in enumerate(keys):
            if key <= existing:
                return i
        return len(keys)

    @staticmethod
    def _child_index(keys: List[int], key: int) -> int:
        for i, existing in enumerate(keys):
            if key < existing:
                return i
        return len(keys)

    # -- iterators ------------------------------------------------------------
    def lookup_iterator(self) -> BTreeLookup:
        return BTreeLookup(lambda: self.root, self.layout, self.fanout)

    def scan_collect_iterator(self, limit: int) -> BTreeScanCollect:
        return BTreeScanCollect(lambda: self.root, self.layout,
                                self.fanout, limit)

    def scan_count_iterator(self, limit: int) -> BTreeScanCount:
        return BTreeScanCount(lambda: self.root, self.layout,
                              self.fanout, limit)

    def aggregate_iterator(self, op: str) -> BTreeAggregate:
        return BTreeAggregate(lambda: self.root, self.layout,
                              self.fanout, op)

    def index_entries(self):
        """Yield (key, leaf vaddr) for every key (bulk index priming)."""
        addr = self._leftmost_leaf()
        while addr != NULL:
            node = self._read_node(addr)
            for i in range(node["count"]):
                yield node["keys"][i], addr
            addr = node["ptrs"][self.fanout]

    def _leftmost_leaf(self) -> int:
        addr = self.root
        if addr == NULL:
            return NULL
        while True:
            node = self._read_node(addr)
            if node["flags"] & LEAF_FLAG:
                return addr
            addr = node["ptrs"][0]
