"""Tests for the pulse ISA: instructions, programs, assembler, interpreter,
and static analysis."""

import gc
import weakref

import pytest

from repro.isa import (
    ExecutionFault,
    Instruction,
    IsaError,
    IteratorMachine,
    Opcode,
    Program,
    analyze,
    assemble,
    data,
    disassemble,
    imm,
    reg,
    sp,
)
from repro.mem import GlobalMemory
from repro.params import AcceleratorParams

# The paper's Listing 4: unordered_map::find() over a chained hash bucket.
# Node layout: key @0 (u64), value @8 (u64 here), next @16 (ptr).
HASH_FIND_ASM = """
.name hash_find
.scratch 64
    LOAD 0 24
    COMPARE sp[0] data[0]       ; target key vs current key
    JUMP_EQ found
    COMPARE data[16] #0         ; next == NULL?
    JUMP_EQ notfound
    MOVE cur_ptr data[16]
    NEXT_ITER
notfound:
    MOVE sp[8] #404             ; KEY_NOT_FOUND
    RETURN
found:
    MOVE sp[8] data[8]
    RETURN
"""


def build_list(gm, pairs):
    """Write a singly linked list of (key, value) into global memory."""
    addrs = [gm.alloc(24) for _ in pairs]
    for i, (key, value) in enumerate(pairs):
        nxt = addrs[i + 1] if i + 1 < len(addrs) else 0
        gm.write_u64(addrs[i], key)
        gm.write_u64(addrs[i] + 8, value)
        gm.write_u64(addrs[i] + 16, nxt)
    return addrs


@pytest.fixture
def hash_find():
    return assemble(HASH_FIND_ASM)


class TestAssembler:
    def test_parses_paper_kernel(self, hash_find):
        assert hash_find.name == "hash_find"
        assert hash_find.load_window == (0, 24)
        assert len(hash_find) == 11

    def test_round_trip_through_disassembler(self, hash_find):
        text = disassemble(hash_find)
        again = assemble(text)
        assert [i.describe() for i in again.instructions] == \
               [i.describe() for i in hash_find.instructions]

    def test_unknown_opcode_rejected(self):
        with pytest.raises(IsaError, match="unknown opcode"):
            assemble("LOAD 0 8\nFROB r0 r1\nRETURN")

    def test_undefined_label_rejected(self):
        with pytest.raises(IsaError, match="undefined label"):
            assemble("LOAD 0 8\nJUMP_EQ nowhere\nRETURN")

    def test_duplicate_label_rejected(self):
        with pytest.raises(IsaError, match="duplicate label"):
            assemble("LOAD 0 8\na:\na:\nRETURN")

    def test_wrong_arity_rejected(self):
        with pytest.raises(IsaError, match="takes"):
            assemble("LOAD 0 8\nADD r0 r1\nRETURN")

    def test_operand_widths_and_signs(self):
        program = assemble("LOAD 0 16\nMOVE sp[0]:4u data[4]:2\nRETURN")
        move = program.instructions[1]
        assert move.dst.width == 4 and not move.dst.signed
        assert move.a.width == 2 and move.a.signed

    def test_hex_immediates(self):
        program = assemble("LOAD 0 8\nMOVE sp[0] #0x10\nRETURN")
        assert program.instructions[1].a.value == 16

    def test_bad_operand_rejected(self):
        with pytest.raises(IsaError, match="cannot parse operand"):
            assemble("LOAD 0 8\nMOVE sp[0] lolwut\nRETURN")


class TestProgramValidation:
    def test_backward_jump_rejected(self):
        instrs = [
            Instruction(Opcode.LOAD, mem_size=8),
            Instruction(Opcode.COMPARE, a=sp(0), b=imm(0)),
            Instruction(Opcode.JUMP_EQ, target=0),
            Instruction(Opcode.RETURN),
        ]
        with pytest.raises(IsaError, match="backward jump"):
            Program("bad", instrs)

    def test_first_instruction_must_be_load(self):
        with pytest.raises(IsaError, match="first instruction"):
            Program("bad", [Instruction(Opcode.RETURN)])

    def test_second_load_rejected(self):
        instrs = [
            Instruction(Opcode.LOAD, mem_size=8),
            Instruction(Opcode.LOAD, mem_size=8),
            Instruction(Opcode.RETURN),
        ]
        with pytest.raises(IsaError, match="extra LOAD"):
            Program("bad", instrs)

    def test_load_window_capped_at_256(self):
        instrs = [Instruction(Opcode.LOAD, mem_size=512),
                  Instruction(Opcode.RETURN)]
        with pytest.raises(IsaError, match="exceeds"):
            Program("bad", instrs)

    def test_fall_off_end_rejected(self):
        instrs = [Instruction(Opcode.LOAD, mem_size=8),
                  Instruction(Opcode.MOVE, dst=reg(0), a=imm(1))]
        with pytest.raises(IsaError, match="falls off the end"):
            Program("bad", instrs)

    def test_data_read_beyond_window_rejected(self):
        instrs = [Instruction(Opcode.LOAD, mem_size=8),
                  Instruction(Opcode.MOVE, dst=reg(0), a=data(8)),
                  Instruction(Opcode.RETURN)]
        with pytest.raises(IsaError, match="beyond"):
            Program("bad", instrs)

    def test_empty_program_rejected(self):
        with pytest.raises(IsaError, match="empty"):
            Program("bad", [])

    def test_iteration_paths_enumerated(self):
        program = assemble(HASH_FIND_ASM)
        paths = program.iteration_paths()
        terminals = {program.instructions[p[-1]].opcode for p in paths}
        assert Opcode.NEXT_ITER in terminals
        assert Opcode.RETURN in terminals
        assert len(paths) == 3  # found / notfound / continue


class TestInterpreter:
    def test_finds_key_in_linked_list(self, hash_find):
        gm = GlobalMemory(1, 1 << 16)
        addrs = build_list(gm, [(10, 100), (20, 200), (30, 300)])
        machine = IteratorMachine(hash_find)
        machine.reset(addrs[0], scratch=(20).to_bytes(8, "little"))
        out = machine.run(gm.read)
        assert int.from_bytes(out[8:16], "little") == 200
        assert machine.iterations == 2

    def test_key_not_found_writes_sentinel(self, hash_find):
        gm = GlobalMemory(1, 1 << 16)
        addrs = build_list(gm, [(10, 100), (20, 200)])
        machine = IteratorMachine(hash_find)
        machine.reset(addrs[0], scratch=(99).to_bytes(8, "little"))
        out = machine.run(gm.read)
        assert int.from_bytes(out[8:16], "little") == 404
        assert machine.iterations == 2

    def test_single_iteration_outcomes(self, hash_find):
        gm = GlobalMemory(1, 1 << 16)
        addrs = build_list(gm, [(1, 11), (2, 22)])
        machine = IteratorMachine(hash_find)
        machine.reset(addrs[0], scratch=(2).to_bytes(8, "little"))
        done, _executed = machine.step(gm.read(addrs[0], 24))
        assert not done
        assert machine.cur_ptr == addrs[1]
        done, _executed = machine.step(gm.read(addrs[1], 24))
        assert done

    def test_max_iterations_enforced(self, hash_find):
        gm = GlobalMemory(1, 1 << 16)
        # Cycle: node points to itself, key never matches.
        addr = gm.alloc(24)
        gm.write_u64(addr, 1)
        gm.write_u64(addr + 16, addr)
        machine = IteratorMachine(hash_find)
        machine.reset(addr, scratch=(2).to_bytes(8, "little"))
        with pytest.raises(ExecutionFault, match="exceeded"):
            machine.run(gm.read, max_iterations=10)
        assert machine.iterations == 10

    def test_alu_operations(self):
        program = assemble("""
            LOAD 0 8
            MOVE r0 #10
            ADD r1 r0 #5
            SUB r2 r1 #3
            MUL r3 r2 #2
            DIV r4 r3 #4
            AND r5 r3 #0xF
            OR r6 r5 #0x10
            NOT r7 #0
            MOVE sp[0] r1
            MOVE sp[8] r2
            MOVE sp[16] r3
            MOVE sp[24] r4
            MOVE sp[32] r5
            MOVE sp[40] r6
            MOVE sp[48] r7
            RETURN
        """, scratch_bytes=64)
        gm = GlobalMemory(1, 1 << 16)
        addr = gm.alloc(8)
        machine = IteratorMachine(program)
        machine.reset(addr)
        out = machine.run(gm.read)

        def sp_val(off, signed=False):
            return int.from_bytes(out[off:off + 8], "little",
                                  signed=signed)
        assert sp_val(0) == 15      # ADD
        assert sp_val(8) == 12      # SUB
        assert sp_val(16) == 24     # MUL
        assert sp_val(24) == 6      # DIV
        assert sp_val(32) == 24 & 0xF
        assert sp_val(40) == (24 & 0xF) | 0x10
        assert sp_val(48, signed=True) == -1  # NOT 0

    def test_division_by_zero_faults(self):
        program = assemble("LOAD 0 8\nDIV r0 #1 #0\nRETURN")
        gm = GlobalMemory(1, 1 << 16)
        addr = gm.alloc(8)
        machine = IteratorMachine(program)
        machine.reset(addr)
        with pytest.raises(ExecutionFault, match="division by zero"):
            machine.run(gm.read)

    def test_signed_division_truncates_toward_zero(self):
        program = assemble(
            "LOAD 0 8\nDIV r0 #-7 #2\nMOVE sp[0] r0\nRETURN")
        gm = GlobalMemory(1, 1 << 16)
        addr = gm.alloc(8)
        machine = IteratorMachine(program)
        machine.reset(addr)
        out = machine.run(gm.read)
        assert int.from_bytes(out[:8], "little", signed=True) == -3

    def test_narrow_width_access_sign_extension(self):
        program = assemble("""
            LOAD 0 8
            MOVE sp[0] data[0]:1        ; signed byte
            MOVE sp[8] data[0]:1u       ; unsigned byte
            RETURN
        """)
        gm = GlobalMemory(1, 1 << 16)
        addr = gm.alloc(8)
        gm.write(addr, b"\xff" + bytes(7))
        machine = IteratorMachine(program)
        machine.reset(addr)
        out = machine.run(gm.read)
        assert int.from_bytes(out[:8], "little", signed=True) == -1
        assert int.from_bytes(out[8:16], "little") == 255

    def test_store_writes_memory(self):
        program = assemble("LOAD 0 16\nSTORE 8 sp[0]\nRETURN")
        gm = GlobalMemory(1, 1 << 16)
        addr = gm.alloc(16)
        machine = IteratorMachine(program)
        machine.reset(addr, scratch=(7777).to_bytes(8, "little"))
        machine.run(gm.read, write_fn=gm.write)
        assert gm.read_u64(addr + 8) == 7777

    def test_store_without_write_fn_faults(self):
        program = assemble("LOAD 0 16\nSTORE 8 sp[0]\nRETURN")
        gm = GlobalMemory(1, 1 << 16)
        addr = gm.alloc(16)
        machine = IteratorMachine(program)
        machine.reset(addr)
        with pytest.raises(ExecutionFault, match="read-only"):
            machine.run(gm.read)

    def test_data_vector_not_writable(self):
        with pytest.raises(IsaError):
            # Validation rejects it before execution: data window is 8 but
            # MOVE dst is data -- caught as not-writable? data IS writable
            # per operand model, so interpreter faults instead.
            program = assemble("LOAD 0 8\nMOVE data[0] #1\nRETURN")
            gm = GlobalMemory(1, 1 << 16)
            addr = gm.alloc(8)
            machine = IteratorMachine(program)
            machine.reset(addr)
            try:
                machine.run(gm.read)
            except ExecutionFault as exc:
                raise IsaError(str(exc))

    def test_compare_jump_conditions(self):
        # For each condition, verify taken/not-taken against known values.
        cases = [
            ("JUMP_EQ", 5, 5, True), ("JUMP_EQ", 5, 6, False),
            ("JUMP_NEQ", 5, 6, True), ("JUMP_NEQ", 5, 5, False),
            ("JUMP_LT", 4, 5, True), ("JUMP_LT", 5, 5, False),
            ("JUMP_GT", 6, 5, True), ("JUMP_GT", 5, 5, False),
            ("JUMP_LE", 5, 5, True), ("JUMP_LE", 6, 5, False),
            ("JUMP_GE", 5, 5, True), ("JUMP_GE", 4, 5, False),
        ]
        gm = GlobalMemory(1, 1 << 16)
        addr = gm.alloc(8)
        for op, a, b, taken in cases:
            program = assemble(f"""
                LOAD 0 8
                COMPARE #{a} #{b}
                {op} taken
                MOVE sp[0] #0
                RETURN
            taken:
                MOVE sp[0] #1
                RETURN
            """)
            machine = IteratorMachine(program)
            machine.reset(addr)
            out = machine.run(gm.read)
            got = int.from_bytes(out[:8], "little")
            assert got == (1 if taken else 0), (op, a, b)

    def test_scratch_overflow_on_reset_rejected(self, hash_find):
        machine = IteratorMachine(hash_find)
        with pytest.raises(ExecutionFault, match="exceeds"):
            machine.reset(0x1000, scratch=bytes(128))

    def test_instruction_accounting(self, hash_find):
        gm = GlobalMemory(1, 1 << 16)
        addrs = build_list(gm, [(1, 11)])
        machine = IteratorMachine(hash_find)
        machine.reset(addrs[0], scratch=(1).to_bytes(8, "little"))
        # LOAD + COMPARE + JUMP_EQ(taken) + MOVE + RETURN = 5
        assert machine.step(gm.read(addrs[0], 24)) == (True, 5)
        assert machine.total_load_bytes == 24

    @pytest.mark.parametrize("compiled", (False, True))
    def test_step_takes_the_loaded_bytes(self, hash_find, compiled):
        """``step`` takes the window the host already read: same result,
        counters and short-read fault on either tier."""
        gm = GlobalMemory(1, 1 << 16)
        addrs = build_list(gm, [(1, 11), (2, 22)])
        machine = IteratorMachine(hash_find, compiled=compiled)
        machine.reset(addrs[0], scratch=(2).to_bytes(8, "little"))
        assert machine.step(gm.read(addrs[0], 24)) == (False, 7)
        assert machine.cur_ptr == addrs[1]
        assert machine.step(bytearray(gm.read(addrs[1], 24))) == (True, 5)
        assert (machine.iterations, machine.total_instructions,
                machine.total_load_bytes) == (2, 12, 48)
        with pytest.raises(ExecutionFault,
                           match="short read: wanted 24 B, got 8 B"):
            machine.step(bytes(8))
        assert machine.iterations == 2

    @pytest.mark.parametrize("compiled", (False, True))
    def test_machine_is_freed_without_the_cycle_collector(self, hash_find,
                                                          compiled):
        """A frame holds its step function unbound: the client fallback
        and local runs build one per call, and each must go as soon as
        its last reference does."""
        machine = IteratorMachine(hash_find, compiled=compiled)
        alive = weakref.ref(machine)
        gc.disable()
        try:
            del machine
            assert alive() is None
        finally:
            gc.enable()


class TestAnalysis:
    def test_hash_kernel_eta_matches_paper(self, hash_find):
        params = AcceleratorParams()
        analysis = analyze(hash_find, params)
        # Recurring path: COMPARE, JUMP, COMPARE, JUMP, MOVE, NEXT_ITER = 6
        assert analysis.recurring_instructions == 6
        # Table 2 reports eta ~= 0.06 for the hash table.
        assert 0.03 <= analysis.eta <= 0.1
        assert analysis.offloadable

    def test_compute_heavy_kernel_rejected(self):
        lines = ["LOAD 0 8"]
        for _ in range(200):
            lines.append("ADD r0 r0 #1")
        lines.append("NEXT_ITER")
        heavy = assemble("\n".join(lines))
        analysis = analyze(heavy, AcceleratorParams())
        assert not analysis.offloadable
        assert "t_c" in analysis.reject_reason

    def test_oversized_scratch_rejected(self, hash_find):
        big = Program("big", hash_find.instructions, scratch_bytes=1 << 20)
        analysis = analyze(big, AcceleratorParams())
        assert not analysis.offloadable
        assert "scratch" in analysis.reject_reason

    def test_t_d_scales_with_load_size(self):
        params = AcceleratorParams()
        small = assemble("LOAD 0 8\nNEXT_ITER")
        large = assemble("LOAD 0 256\nNEXT_ITER")
        assert (analyze(large, params).t_d_ns
                > analyze(small, params).t_d_ns)

    def test_terminal_instructions_tracked(self, hash_find):
        analysis = analyze(hash_find, AcceleratorParams())
        assert analysis.terminal_instructions >= 4
