"""Tests for the Python-to-ISA kernel frontend."""

import pytest

from repro.core import PulseCluster, PulseIterator
from repro.core.frontend import (
    NEXT,
    RETURN,
    FrontendError,
    compile_kernel,
)
from repro.isa import IteratorMachine, Opcode, analyze
from repro.mem import Field, GlobalMemory, StructLayout
from repro.params import AcceleratorParams

from tests.helpers import build_list

NODE = StructLayout("node", [
    Field("key", "u64"),
    Field("value", "i64"),
    Field("next", "ptr"),
])

SCRATCH = StructLayout("sp", [
    Field("key", "u64"),
    Field("value", "i64"),
    Field("status", "u64"),
])


def list_find(node, sp):
    if sp.key == node.key:
        sp.value = node.value
        sp.status = 1
        return RETURN
    if node.next == 0:
        sp.status = 0
        return RETURN
    return NEXT(node.next)


class TestCompileListFind:
    def test_compiles_to_valid_program(self):
        program = compile_kernel(list_find, NODE, SCRATCH)
        assert program.name == "list_find"
        assert program.instructions[0].opcode is Opcode.LOAD
        assert program.load_window == (0, NODE.size)
        analysis = analyze(program, AcceleratorParams())
        assert analysis.offloadable
        assert analysis.eta < 0.1

    def test_executes_correctly(self):
        gm = GlobalMemory(1, 1 << 20)
        addrs = build_list(gm, [(k, -k) for k in range(1, 31)])
        program = compile_kernel(list_find, NODE, SCRATCH)
        machine = IteratorMachine(program)
        machine.reset(addrs[0], SCRATCH.pack(key=17))
        out = machine.run(gm.read)
        result = SCRATCH.unpack(out)
        assert result["status"] == 1
        assert result["value"] == -17
        assert machine.iterations == 17

    def test_not_found_path(self):
        gm = GlobalMemory(1, 1 << 20)
        addrs = build_list(gm, [(1, 10), (2, 20)])
        program = compile_kernel(list_find, NODE, SCRATCH)
        machine = IteratorMachine(program)
        machine.reset(addrs[0], SCRATCH.pack(key=99))
        out = machine.run(gm.read)
        assert SCRATCH.unpack(out)["status"] == 0

    def test_end_to_end_through_cluster(self):
        cluster = PulseCluster(node_count=1)
        addrs = build_list(cluster.memory,
                           [(k, k * 9) for k in range(1, 21)])
        program = compile_kernel(list_find, NODE, SCRATCH)

        class Finder(PulseIterator):
            def __init__(self):
                self.program = program

            def init(self, key):
                return addrs[0], SCRATCH.pack(key=key)

            def finalize(self, scratch):
                out = SCRATCH.unpack(scratch)
                return out["value"] if out["status"] == 1 else None

        result = cluster.run_traversal(Finder(), 13)
        assert result.value == 117
        assert result.offloaded


class TestLoopsAndArrays:
    LEAF = StructLayout("leaf", [
        Field("flags", "u32"),
        Field("count", "u32"),
        Field("keys", "u64", count=4),
        Field("vals", "i64", count=4),
        Field("next", "ptr"),
    ])
    SP = StructLayout("sp", [
        Field("target", "u64"),
        Field("total", "i64"),
        Field("matches", "u64"),
    ])

    @staticmethod
    def sum_leaves(node, sp):
        """Sum values with key >= target across a leaf chain."""
        for i in range(4):
            if i >= node.count:
                break
            if node.keys[i] >= sp.target:
                sp.total += node.vals[i]
                sp.matches += 1
        if node.next == 0:
            return RETURN
        return NEXT(node.next)

    def _build_chain(self, gm, leaves):
        addrs = [gm.alloc(self.LEAF.size) for _ in leaves]
        for i, entries in enumerate(leaves):
            nxt = addrs[i + 1] if i + 1 < len(addrs) else 0
            gm.write(addrs[i], self.LEAF.pack(
                flags=1, count=len(entries),
                keys=[k for k, _ in entries],
                vals=[v for _, v in entries],
                next=nxt))
        return addrs

    def test_unrolled_loop_with_break_and_subscripts(self):
        gm = GlobalMemory(1, 1 << 20)
        leaves = [[(1, 10), (2, 20), (3, 30), (4, 40)],
                  [(5, 50), (6, 60)],
                  [(7, 70), (8, 80), (9, 90)]]
        addrs = self._build_chain(gm, leaves)
        program = compile_kernel(self.sum_leaves, self.LEAF, self.SP)
        machine = IteratorMachine(program)
        machine.reset(addrs[0], self.SP.pack(target=3))
        out = machine.run(gm.read)
        result = self.SP.unpack(out)
        expected = [v for leaf in leaves for k, v in leaf if k >= 3]
        assert result["total"] == sum(expected)
        assert result["matches"] == len(expected)
        assert machine.iterations == 3

    def test_loop_unrolls_to_constant_instructions(self):
        program = compile_kernel(self.sum_leaves, self.LEAF, self.SP)
        analysis = analyze(program, AcceleratorParams())
        assert analysis.offloadable
        # 4 unrolled slots of bounded work each.
        assert analysis.recurring_instructions < 60


class TestArithmetic:
    SP = StructLayout("sp", [Field(f"r{i}", "i64") for i in range(6)])
    REC = StructLayout("rec", [Field("a", "i64"), Field("b", "i64"),
                               Field("next", "ptr")])

    @staticmethod
    def math(node, sp):
        sp.r0 = node.a + node.b
        sp.r1 = node.a - node.b
        sp.r2 = node.a * 3
        sp.r3 = node.a // 2
        sp.r4 = node.a & 12
        sp.r5 = (node.a + node.b) * 2
        sp.r5 += 1
        return RETURN

    def test_expressions_compile_and_run(self):
        gm = GlobalMemory(1, 1 << 20)
        addr = gm.alloc(self.REC.size)
        gm.write(addr, self.REC.pack(a=14, b=5, next=0))
        program = compile_kernel(self.math, self.REC, self.SP)
        machine = IteratorMachine(program)
        machine.reset(addr, bytes(self.SP.size))
        out = self.SP.unpack(machine.run(gm.read))
        assert out["r0"] == 19
        assert out["r1"] == 9
        assert out["r2"] == 42
        assert out["r3"] == 7
        assert out["r4"] == 12
        assert out["r5"] == 39


class TestRejections:
    def _compile(self, fn):
        return compile_kernel(fn, NODE, SCRATCH)

    def test_unbounded_while_rejected(self):
        def bad(node, sp):
            while True:
                sp.status = 1
            return RETURN

        with pytest.raises(FrontendError, match="statement"):
            self._compile(bad)

    def test_dynamic_range_rejected(self):
        def bad(node, sp):
            for i in range(node.key):
                sp.status = i
            return RETURN

        with pytest.raises(FrontendError, match="loop bound"):
            self._compile(bad)

    def test_write_to_node_rejected(self):
        def bad(node, sp):
            node.key = 1
            return RETURN

        with pytest.raises(FrontendError, match="writable"):
            self._compile(bad)

    def test_calls_rejected(self):
        def bad(node, sp):
            sp.status = len(node)
            return RETURN

        with pytest.raises(FrontendError):
            self._compile(bad)

    def test_plain_return_rejected(self):
        def bad(node, sp):
            return 42

        with pytest.raises(FrontendError, match="return"):
            self._compile(bad)

    def test_wrong_arity_rejected(self):
        def bad(node):
            return RETURN

        with pytest.raises(FrontendError, match="parameters"):
            self._compile(bad)

    def test_boolean_conditions_rejected(self):
        def bad(node, sp):
            if node.key == 1 and node.next == 0:
                return RETURN
            return NEXT(node.next)

        with pytest.raises(FrontendError, match="condition"):
            self._compile(bad)

    def test_fallthrough_rejected(self):
        def bad(node, sp):
            if node.key == 0:
                return RETURN
            sp.status = 1  # falls off the end

        with pytest.raises(FrontendError, match="fall|RETURN"):
            self._compile(bad)


class TestElseBranches:
    @staticmethod
    def clamp(node, sp):
        if node.value >= 0:
            sp.value = node.value
        else:
            sp.value = 0
        if node.next == 0:
            return RETURN
        return NEXT(node.next)

    def test_else_branch_codegen(self):
        gm = GlobalMemory(1, 1 << 20)
        addrs = build_list(gm, [(1, -5), (2, 7)])
        program = compile_kernel(self.clamp, NODE, SCRATCH)
        machine = IteratorMachine(program)
        machine.reset(addrs[0], bytes(SCRATCH.size))
        out = SCRATCH.unpack(machine.run(gm.read))
        assert out["value"] == 7  # last node's positive value
        machine.reset(addrs[1], bytes(SCRATCH.size))
        machine.run(gm.read)
