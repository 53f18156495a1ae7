"""Helpers shared by the test modules."""

import struct
from collections import Counter
from dataclasses import replace

from repro.core import PulseCluster
from repro.core.iterator import TraversalResult
from repro.core.switch import PulseSwitch
from repro.isa import (ExecutionFault, Instruction, IsaError, IteratorMachine,
                       Opcode, Program)
from repro.isa.encoding import (_BANKS, _NO_OPERAND, _OPCODES, MAGIC, VERSION,
                                EncodingError)
from repro.isa.instructions import JUMP_OPCODES, MASK64, Bank, Operand
from repro.mem.addrspace import AddressSpace
from repro.params import (DEFAULT_PARAMS, NetworkParams, SystemParams,
                          TransportParams)
from repro.placement.migration import MigrationError, switch_ownership
from repro.placement.rangemap import PlacementMap
from repro.sim.engine import Environment, Process
from repro.sim.network import Fabric, LinkProfile
from repro.structures import (AvlTree, BinarySearchTree, BPlusTree, HashTable,
                              LinkedList, SkipList)
from repro.structures.base import NULL, StructureError
from repro.structures.bst import NODE as BST_NODE
from repro.structures.btree import LEAF_FLAG
from repro.structures.graph import VERTEX


def counter_value(component, name):
    """One counter of ``component.registry``; unknown names raise."""
    return component.registry.snapshot()["counters"][name]


def data(offset, width=8, signed=True):
    """A data-register operand (the iteration's LOAD window)."""
    return Operand(Bank.DATA, offset, width, signed)


def run_traversal(system, iterator, *args):
    """One traversal on any rack, run to completion (a baseline's
    one-off; ``PulseCluster.run_traversal`` pins client0 instead)."""
    return system.env.run(
        until=system.env.process(system.traverse(iterator, *args)))


def hot_segments(heat):
    """A ``HeatMap``'s segment heat summed over its nodes, hottest
    first, equal heats by ascending address."""
    merged = {}
    for tracker in heat.trackers:
        for segment, value in tracker.hot_segments():
            merged[segment] = merged.get(segment, 0.0) + value
    return sorted(merged.items(), key=lambda item: (-item[1], item[0]))


def with_memory(params=DEFAULT_PARAMS, **fields):
    """``params`` with the given ``MemoryParams`` fields replaced
    (``node_capacity_bytes``, ``cache_bytes``, ...)."""
    return replace(params, memory=replace(params.memory, **fields))


def lossy_cluster(drop, timeout_ns=40_000.0, **cluster_kwargs):
    """A rack losing packets the transport does not see.

    Every link drops with probability ``drop`` while per-hop
    reliability never arms (``mode="never"``), so the client's
    end-to-end retry (after ``timeout_ns``) is the only recovery.
    """
    params = SystemParams(
        network=NetworkParams(retransmit_timeout_ns=timeout_ns),
        transport=TransportParams(mode="never"))
    cluster = PulseCluster(params=params, **cluster_kwargs)
    cluster.fabric.configure_all_links(LinkProfile(drop_probability=drop))
    return cluster


def drain(cluster, node_id):
    """Simulation process: move everything off ``node_id``; returns the
    mapped bytes moved.

    The node stops taking allocations first.  Then each rule it owns
    goes to the least-filled allocatable node: its mapped span by live
    migration, and what is left of the rule (unmapped address space) by
    an ownership switch in the same instant.  Afterwards the placement
    map gives the node nothing, so the switch never routes a new frame
    there.
    """
    memory = cluster.memory
    allocator, placement = memory.allocator, memory.placement
    allocator.set_allocatable(node_id, False)
    moved = 0
    while placement.rules_of(node_id):
        start, end = placement.rules_of(node_id)[0]
        targets = [n for n in range(memory.node_count)
                   if n != node_id and allocator.is_allocatable(n)]
        if not targets:
            raise MigrationError(f"no node can absorb node {node_id}'s data")
        target = min(targets, key=allocator.node_fill_fractions().__getitem__)
        moved += yield from cluster.migration.migrate(start, end, target)
        for left_start, left_end in placement.rules_of(node_id):
            if left_start < end and start < left_end:
                switch_ownership(memory, node_id, target,
                                 max(start, left_start), min(end, left_end))
    return moved


def reference_hold(env, resource, duration, then=None):
    """A timed stage as it was spelled before ``Resource.hold``.

    The ``_hold`` generator the accelerator, the client, the fabric and
    the baselines each carried (request, wait for the grant, wait out the
    duration, release), followed by the stage's latency tail as one more
    timeout.  Kept only as the oracle ``tests/test_sim_hold.py`` runs
    ``Resource.hold`` against.
    """
    grant = resource.request()
    yield grant
    try:
        yield env.timeout(duration)
    finally:
        resource.release(grant)
    if then is not None:
        yield env.timeout(then)


def count_process_starts(monkeypatch):
    """Count every ``Process`` started from here on, by the generator's
    ``__qualname__`` (``"Accelerator._admit"``); returns the live
    :class:`collections.Counter`."""
    started = Counter()
    init = Process.__init__

    def counting_init(self, env, generator):
        started[generator.__qualname__] += 1
        init(self, env, generator)

    monkeypatch.setattr(Process, "__init__", counting_init)
    return started


class ReferenceDedup:
    """A receive flow's duplicate filter as it was before the floor
    absorbed the seen seqs contiguous with it: ``floor`` moves only when
    ``seen`` overflows the window.  Kept only as the oracle
    ``tests/test_transport.py`` runs ``TransportSession`` against."""

    def __init__(self, window):
        self.window = window
        self.floor = 0
        self.seen = set()

    def accept(self, seq):
        """Whether ``seq`` is delivered (False: dropped as a duplicate)."""
        if seq <= self.floor or seq in self.seen:
            return False
        self.seen.add(seq)
        while len(self.seen) > self.window:
            self.floor += 1
            self.seen.discard(self.floor)
        return True


def reference_iteration_paths(program):
    """Every control path from entry to a NEXT_ITER or RETURN, as pc
    lists, in depth-first order with a jump's fall-through before its
    target -- the enumeration the offload engine's analysis ran before
    ``Program.longest_paths``.  Exponential in the number of chained
    branches; kept only as the oracle ``tests/test_static_analysis.py``
    runs the backward pass against."""
    paths = []
    stack = [(0, [])]
    while stack:
        index, path = stack.pop()
        instr = program.instructions[index]
        path = path + [index]
        if instr.opcode in (Opcode.RETURN, Opcode.NEXT_ITER):
            paths.append(path)
            continue
        if instr.opcode in JUMP_OPCODES:
            stack.append((instr.target, path))
        if index + 1 < len(program.instructions):
            stack.append((index + 1, path))
    return paths


def reference_naive_load_runs(program):
    """``Program.naive_load_runs`` over :func:`reference_iteration_paths`:
    the data runs of the first longest path ending in NEXT_ITER, or of
    the first longest path when none does."""
    paths = reference_iteration_paths(program)
    recurring = []
    for path in paths:
        if (program.instructions[path[-1]].opcode is Opcode.NEXT_ITER
                and len(path) > len(recurring)):
            recurring = path
    if not recurring:
        recurring = max(paths, key=len)
    intervals = sorted(
        (operand.value, operand.value + operand.width)
        for index in recurring
        for operand in (program.instructions[index].dst,
                        program.instructions[index].a,
                        program.instructions[index].b)
        if operand is not None and operand.bank.value == "data")
    if not intervals:
        return [program.load_window]
    runs = []
    start, end = intervals[0]
    for lo, hi in intervals[1:]:
        if lo <= end:
            end = max(end, hi)
        else:
            runs.append((start, end - start))
            start, end = lo, hi
    runs.append((start, end - start))
    return runs


def build_list(memory, pairs, node_for=None):
    """Write a singly linked list of ``(key, value)`` as 24-byte
    ``key | value | next`` records (u64, 64-bit value, pointer);
    ``node_for(i)`` picks record ``i``'s memory node.  Returns the
    record addresses, head first."""
    addrs = [memory.alloc(24, preferred_node=node_for(i) if node_for else None)
             for i in range(len(pairs))]
    for i, (key, value) in enumerate(pairs):
        nxt = addrs[i + 1] if i + 1 < len(addrs) else 0
        memory.write(addrs[i], struct.pack("<QQQ", key, value & MASK64, nxt))
    return addrs


def build_table(cluster, n=200, multiplier=7):
    """A HashTable of ``n`` keys, key ``k`` holding ``k * multiplier``."""
    table = HashTable(cluster.memory, buckets=8, value_bytes=8)
    for key in range(n):
        table.insert(key, (key * multiplier).to_bytes(8, "little"))
    return table


def make_switch(node_count=2, bounce=False):
    """A bare switch over ``node_count`` one-MB nodes, with the fabric
    endpoints ``client0`` and ``mem<i>`` registered."""
    env = Environment()
    fabric = Fabric(env, DEFAULT_PARAMS.network)
    space = AddressSpace(node_count, 1 << 20)
    switch = PulseSwitch(env, fabric, PlacementMap(space), DEFAULT_PARAMS,
                         bounce_to_client=bounce)
    client = fabric.register("client0")
    nodes = [fabric.register(f"mem{i}") for i in range(node_count)]
    return env, fabric, space, switch, client, nodes


# -- structure oracles ---------------------------------------------------
# Each answers with plain memory reads, in zero simulated time: the
# reference every offloaded execution (accelerator, RPC, Cache) is
# checked against.

def run_functional(iterator, read_fn, *args, write_fn=None):
    """Run ``iterator``'s whole traversal on the interpreter, reading
    memory through ``read_fn`` (and storing through ``write_fn``); a
    ``TraversalResult`` with no time."""
    machine = IteratorMachine(iterator.program)
    machine.reset(*iterator.init(*args))
    offset, size = iterator.program.load_window
    for _ in range(4096):
        data = read_fn((machine.cur_ptr + offset) & MASK64, size)
        if machine.step(data, write_fn)[0]:
            break
    else:
        raise ExecutionFault("traversal exceeded 4096 iterations")
    return TraversalResult(value=iterator.finalize(bytes(machine.scratch)),
                           iterations=machine.iterations, offloaded=False)


def _list_find(lst, key):
    addr = lst.head
    next_offset = lst.layout.offset("next")
    while addr != NULL:
        raw = lst.memory.read(addr, lst.layout.size)
        if lst.layout.unpack_field(raw, "key") == key:
            return lst.layout.unpack_field(raw, "value")
        addr = lst.memory.read_u64(addr + next_offset)
    return None


def _hash_find(table, key):
    layout = table.layout
    addr = table.memory.read_u64(table.bucket_head(key)
                                 + layout.offset("next"))
    while addr != NULL:
        raw = table.memory.read(addr, layout.size)
        if layout.unpack_field(raw, "key") == key:
            return layout.unpack_field(raw, "value")
        addr = layout.unpack_field(raw, "next")
    return None


def _bst_find(tree, key):
    addr = tree.root
    while addr != NULL:
        raw = tree.memory.read(addr, BST_NODE.size)
        node_key = BST_NODE.unpack_field(raw, "key")
        if node_key == key:
            return BST_NODE.unpack_field(raw, "value")
        addr = BST_NODE.unpack_field(raw,
                                     "left" if key < node_key else "right")
    return None


def _avl_find(tree, key):
    addr = tree.root
    while addr != NULL:
        node = tree._read(addr)
        if node["key"] == key:
            return node["value"]
        addr = node["left"] if key < node["key"] else node["right"]
    return None


def _skiplist_find(sl, key):
    node = sl.head
    for level in reversed(range(sl.levels)):
        while True:
            ptr, succ_key = sl._successor(node, level)
            if ptr == NULL or succ_key > key:
                break
            node = ptr
    raw = sl.memory.read(node, sl.layout.size)
    if node != sl.head and sl.layout.unpack_field(raw, "key") == key:
        return sl.layout.unpack_field(raw, "value")
    return None


def _btree_find(tree, key):
    addr = tree.root
    if addr == NULL:
        return None
    while True:
        node = tree._read_node(addr)
        keys = list(node["keys"])[:node["count"]]
        if node["flags"] & LEAF_FLAG:
            for i, existing in enumerate(keys):
                if existing == key:
                    return node["ptrs"][i]
            return None
        addr = node["ptrs"][tree._child_index(keys, key)]


_FIND = {LinkedList: _list_find, HashTable: _hash_find,
         BinarySearchTree: _bst_find, AvlTree: _avl_find,
         SkipList: _skiplist_find, BPlusTree: _btree_find}


def find_reference(structure, key):
    """The value ``structure`` holds for ``key``, or None."""
    return _FIND[type(structure)](structure, key)


def btree_items(tree):
    """All (key, value) pairs of a B+Tree, via the leaf chain."""
    items = []
    addr = tree._leftmost_leaf()
    while addr != NULL:
        node = tree._read_node(addr)
        for i in range(node["count"]):
            items.append((node["keys"][i], node["ptrs"][i]))
        addr = node["ptrs"][tree.fanout]
    return items


def btree_height(tree):
    """Levels from a B+Tree's root down to its leaves (0 when empty)."""
    height, addr = 0, tree.root
    while addr != NULL:
        height += 1
        node = tree._read_node(addr)
        addr = NULL if node["flags"] & LEAF_FLAG else node["ptrs"][0]
    return height


def chain_length(table, bucket):
    """Nodes on one hash bucket's chain."""
    next_offset = table.layout.offset("next")
    addr = table.memory.read_u64(table._sentinels[bucket] + next_offset)
    length = 0
    while addr != NULL:
        length += 1
        addr = table.memory.read_u64(addr + next_offset)
    return length


def avl_height(tree):
    return tree._height(tree.root)


def check_avl_invariants(tree):
    """Assert BST ordering and AVL balance at every node of ``tree``."""
    def walk(addr, lo, hi):
        if addr == NULL:
            return 0
        node = tree._read(addr)
        if not lo <= node["key"] < hi:
            raise AssertionError(
                f"BST violation at {addr:#x}: {node['key']} not in "
                f"[{lo}, {hi})")
        left = walk(node["left"], lo, node["key"])
        right = walk(node["right"], node["key"] + 1, hi)
        if abs(left - right) > 1:
            raise AssertionError(
                f"AVL violation at {addr:#x}: |{left} - {right}| > 1")
        height = 1 + max(left, right)
        if height != node["height"]:
            raise AssertionError(
                f"stale height at {addr:#x}: stored {node['height']}, "
                f"actual {height}")
        return height

    walk(tree.root, 0, 1 << 64)


def bfs_reference(graph, root_id, queue_capacity=64, max_visits=256):
    """(visited, value sum) of the BFS kernel on ``graph``, modelled in
    Python with its duplicates and caps."""
    queue = []
    used_slots = 0
    visited = 0
    total = 0
    current = graph.address_of(root_id)
    if current == NULL:
        raise StructureError(f"no vertex with id {root_id}")
    while True:
        raw = graph.memory.read(current, VERTEX.size)
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


# -- the wire encoding's inverse -------------------------------------------

def _decode_operand(encoded, pool):
    bank = _BANKS[(encoded >> 13) & 0x7]
    width = 1 << ((encoded >> 11) & 0x3)
    signed = bool((encoded >> 10) & 0x1)
    payload = encoded & 0x3FF
    if bank is Bank.IMM:
        if payload >= len(pool):
            raise EncodingError(f"constant pool index {payload} "
                                f"out of range ({len(pool)})")
        return Operand(bank, pool[payload], 8, signed=True)
    return Operand(bank, payload, width, signed)


def decode(data):
    """The program ``encode`` wrote into ``data`` (validated on the way)."""
    if len(data) < 16 or data[:2] != MAGIC:
        raise EncodingError("not a pulse program (bad magic)")
    version = data[2]
    if version != VERSION:
        raise EncodingError(f"unsupported version {version}")
    (_magic, _ver, _pad, instr_count, const_count,
     _pad2) = struct.unpack_from("<2sBBHBB", data, 0)
    scratch_bytes, name_len, _p, _p2 = struct.unpack_from("<HBBI",
                                                          data, 8)
    offset = 16
    name = data[offset:offset + name_len].decode("utf-8")
    offset += name_len + (-name_len % 8)

    instr_end = offset + 8 * instr_count
    const_end = instr_end + 8 * const_count
    if len(data) < const_end:
        raise EncodingError("truncated program")
    pool = [int.from_bytes(data[instr_end + 8 * i:instr_end + 8 * i + 8],
                           "little", signed=True)
            for i in range(const_count)]

    instructions = []
    for i in range(instr_count):
        op_index, _flags, f1, f2, f3 = struct.unpack_from(
            "<BBHHH", data, offset + 8 * i)
        if op_index >= len(_OPCODES):
            raise EncodingError(f"unknown opcode index {op_index}")
        op = _OPCODES[op_index]
        if op is Opcode.LOAD:
            instructions.append(Instruction(op, mem_offset=f1,
                                            mem_size=f2))
        elif op is Opcode.STORE:
            instructions.append(Instruction(
                op, mem_offset=f1, a=_decode_operand(f2, pool)))
        elif op.value.startswith("JUMP_"):
            instructions.append(Instruction(op, target=f1))
        elif op in (Opcode.RETURN, Opcode.NEXT_ITER):
            instructions.append(Instruction(op))
        else:
            def operand(field):
                return (None if field == _NO_OPERAND
                        else _decode_operand(field, pool))
            instructions.append(Instruction(
                op, dst=operand(f1), a=operand(f2), b=operand(f3)))

    try:
        return Program(name, instructions, scratch_bytes=scratch_bytes)
    except IsaError as exc:
        raise EncodingError(f"decoded program invalid: {exc}")
