"""Functional executor for pulse programs.

The interpreter is shared by every execution substrate in the repo: the
accelerator's logic pipeline, the RPC worker at the memory-node CPU, and
the client-side fallback all run the *same* instruction stream through
this machine -- they differ only in where memory reads come from and what
latencies their host charges.  That is exactly the paper's structure: one
compiled kernel, several places it can run.

Execution is iteration-structured, mirroring the hardware (section 4.2):

1. the memory phase performs the single aggregated LOAD: the host reads
   the window at ``cur_ptr + load offset`` itself, through whatever
   translation it models -- which is where a pointer living on another
   memory node (section 5) or an unreadable range shows up;
2. the logic phase runs the remaining instructions against the workspace
   until NEXT_ITER (another iteration follows) or RETURN (traversal done).

Two execution tiers share this machine's state and interface:

* the **interpreted** tier below -- the semantic oracle, selected by
  constructing with ``compiled=False`` or by setting ``PULSE_INTERP=1``
  in the environment;
* the **compiled** tier (the default) -- one Python function per
  iteration body, produced once per program content by
  :func:`~repro.isa.compiler.compile_program`, with control flow,
  operand access and the instruction count resolved at compile time.
  Same faults, same counters, byte-identical scratch results.

Both run behind one call shape, and it is the only way a host advances
a frame: :meth:`IteratorMachine.step` takes the bytes of the iteration's
LOAD, already read by the host.  ``step`` calls the frame's ``step_fn``,
the whole step as a plain function of the machine: on the compiled tier
it *is* the generated function, and a host stepping many frames calls it
directly.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.isa.compiler import compile_program, interpreter_forced
from repro.isa.instructions import (
    Bank,
    ExecutionFault,
    Instruction,
    JUMP_OPCODES,
    MASK64,
    Opcode,
    Operand,
    to_signed,
    wrap64,
)
from repro.isa.program import Program

ReadFn = Callable[[int, int], bytes]
WriteFn = Callable[[int, bytes], None]


class IteratorMachine:
    """Workspace state + single-iteration executor for one program.

    ``compiled=None`` (the default) selects the compiled tier
    unless ``PULSE_INTERP=1`` is set; pass ``compiled=False`` to pin the
    interpreted oracle, ``compiled=True`` to pin the fast path.
    """

    def __init__(self, program: Program,
                 compiled: Optional[bool] = None):
        self.program = program
        if compiled is None:
            compiled = not interpreter_forced()
        #: True when this machine runs the compiled tier
        self.compiled = bool(compiled)
        self._window_offset, self._window_size = program.load_window
        #: ``step_fn(machine, data, write_fn) -> (done, executed)``, one
        #: whole step: the generated function on the compiled tier, the
        #: interpreter's step otherwise.  Held unbound, so the machine
        #: keeps no reference to itself and goes with its last reference.
        self.step_fn = (compile_program(program).step if self.compiled
                        else IteratorMachine._interpreted_step)
        self.cur_ptr = 0
        # One allocation for the life of the machine: reset() zero-fills
        # in place, so pooled workspaces reuse this buffer across
        # requests instead of churning a fresh bytearray per traversal.
        self.scratch = bytearray(program.scratch_bytes)
        self._zeros = bytes(program.scratch_bytes)
        self.data = b""
        self.regs = [0] * 8
        self._flag_eq = False
        self._flag_lt = False
        self.total_instructions = 0
        self.total_load_bytes = 0
        self.iterations = 0

    def reset(self, cur_ptr: int, scratch: Optional[bytes] = None) -> None:
        """Initialize for a traversal (or resume one mid-flight).

        ``scratch=None`` preserves the current pad contents (resuming a
        continuation); otherwise the pad is zero-filled in place and the
        given prefix copied in.
        """
        self.cur_ptr = cur_ptr
        if scratch is not None:
            if len(scratch) > self.program.scratch_bytes:
                raise ExecutionFault(
                    f"initial scratch {len(scratch)} B exceeds the "
                    f"{self.program.scratch_bytes} B scratch pad")
            pad = self.scratch
            pad[:] = self._zeros
            pad[:len(scratch)] = scratch
        self.data = b""
        self.regs = [0] * 8
        self._flag_eq = False
        self._flag_lt = False
        self.total_instructions = 0
        self.total_load_bytes = 0
        self.iterations = 0

    # -- one hardware iteration ---------------------------------------------
    def step(self, data, write_fn: Optional[WriteFn] = None
             ) -> Tuple[bool, int]:
        """Logic phase over ``data``, the bytes (any buffer) of this
        iteration's LOAD window, already read by the caller.

        Returns ``(done, instructions_executed)``: whether RETURN was
        reached, and the count -- the LOAD included -- the host charges
        logic time for.
        """
        return self.step_fn(self, data, write_fn)

    def _interpreted_step(self, data, write_fn: Optional[WriteFn]
                          ) -> Tuple[bool, int]:
        """The interpreted tier's ``step_fn``; the generated function of
        a compiled frame emits the same short-read check and counter
        updates inline."""
        size = self._window_size
        if len(data) != size:
            raise ExecutionFault(
                f"short read: wanted {size} B, got {len(data)} B")
        self.total_load_bytes += size
        done, executed = self._interpret(data, write_fn)
        self.iterations += 1
        self.total_instructions += executed
        return done, executed

    def _interpret(self, data, write_fn: Optional[WriteFn]
                   ) -> Tuple[bool, int]:
        """The oracle's logic phase: decode and dispatch per instruction."""
        self.data = data
        executed = 1  # the LOAD itself
        pc = 1
        instructions = self.program.instructions
        while True:
            if pc >= len(instructions):
                raise ExecutionFault("fell off the end of the program")
            instr = instructions[pc]
            executed += 1
            op = instr.opcode

            if op is Opcode.RETURN:
                return True, executed
            if op is Opcode.NEXT_ITER:
                return False, executed
            if op is Opcode.COMPARE:
                a = self._read(instr.a)
                b = self._read(instr.b)
                self._flag_eq = a == b
                self._flag_lt = a < b
                pc += 1
                continue
            if op in JUMP_OPCODES:
                if self._branch_taken(op):
                    pc = instr.target
                else:
                    pc += 1
                continue
            if op is Opcode.MOVE:
                self._write(instr.dst, self._read(instr.a))
                pc += 1
                continue
            if op is Opcode.STORE:
                if write_fn is None:
                    raise ExecutionFault(
                        "STORE executed on a read-only substrate")
                value = self._read(instr.a)
                width = instr.a.width
                write_fn(wrap64(self.cur_ptr + instr.mem_offset),
                         (value & ((1 << (8 * width)) - 1))
                         .to_bytes(width, "little"))
                pc += 1
                continue
            # ALU
            self._alu(instr)
            pc += 1

    def _branch_taken(self, op: Opcode) -> bool:
        eq, lt = self._flag_eq, self._flag_lt
        if op is Opcode.JUMP_EQ:
            return eq
        if op is Opcode.JUMP_NEQ:
            return not eq
        if op is Opcode.JUMP_LT:
            return lt
        if op is Opcode.JUMP_GT:
            return not lt and not eq
        if op is Opcode.JUMP_LE:
            return lt or eq
        if op is Opcode.JUMP_GE:
            return not lt
        raise ExecutionFault(f"not a jump: {op}")  # pragma: no cover

    def _alu(self, instr: Instruction) -> None:
        op = instr.opcode
        a = self._read(instr.a)
        if op is Opcode.NOT:
            self._write(instr.dst, ~a)
            return
        b = self._read(instr.b)
        if op is Opcode.ADD:
            result = a + b
        elif op is Opcode.SUB:
            result = a - b
        elif op is Opcode.MUL:
            result = a * b
        elif op is Opcode.DIV:
            if b == 0:
                raise ExecutionFault("division by zero")
            # C-style truncation toward zero.
            result = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                result = -result
        elif op is Opcode.AND:
            result = a & b
        elif op is Opcode.OR:
            result = a | b
        else:  # pragma: no cover -- enum is closed
            raise ExecutionFault(f"not an ALU op: {op}")
        self._write(instr.dst, result)

    # -- operand access -------------------------------------------------
    def _read(self, operand: Operand) -> int:
        bank = operand.bank
        if bank is Bank.IMM:
            return operand.value
        if bank is Bank.CUR_PTR:
            return self.cur_ptr
        if bank is Bank.REG:
            value = self.regs[operand.value]
            return to_signed(value, 8) if operand.signed else wrap64(value)
        if bank is Bank.DATA:
            raw = self._slice(self.data, operand, "data")
        elif bank is Bank.SP_IND:
            raw = self._indirect_slice(operand)
        else:  # SP
            raw = self._slice(self.scratch, operand, "scratch pad")
        value = int.from_bytes(raw, "little")
        if operand.signed:
            return to_signed(value, operand.width)
        return value

    def _write(self, operand: Operand, value: int) -> None:
        bank = operand.bank
        width = operand.width
        masked = value & ((1 << (8 * width)) - 1)
        if bank is Bank.CUR_PTR:
            self.cur_ptr = wrap64(value)
            return
        if bank is Bank.REG:
            self.regs[operand.value] = wrap64(value)
            return
        if bank in (Bank.SP, Bank.SP_IND):
            offset = (operand.value if bank is Bank.SP
                      else self.regs[operand.value])
            end = offset + width
            if offset < 0 or end > len(self.scratch):
                raise ExecutionFault(
                    f"scratch pad write [{offset}:{end}] beyond "
                    f"{len(self.scratch)} B")
            self.scratch[offset:end] = masked.to_bytes(width, "little")
            return
        if bank is Bank.DATA:
            raise ExecutionFault(
                "the data register vector is read-only (loaded from "
                "memory each iteration)")
        raise ExecutionFault(f"cannot write operand bank {bank}")

    def _indirect_slice(self, operand: Operand) -> bytes:
        offset = self.regs[operand.value]
        end = offset + operand.width
        if offset < 0 or end > len(self.scratch):
            raise ExecutionFault(
                f"indirect scratch pad read [{offset}:{end}] beyond "
                f"{len(self.scratch)} B")
        return bytes(self.scratch[offset:end])

    @staticmethod
    def _slice(buf, operand: Operand, what: str) -> bytes:
        end = operand.value + operand.width
        if end > len(buf):
            raise ExecutionFault(
                f"{what} read [{operand.value}:{end}] beyond {len(buf)} B")
        return bytes(buf[operand.value:end])

    # -- convenience: run a whole traversal functionally --------------------
    def run(self, read_fn: ReadFn, write_fn: Optional[WriteFn] = None,
            max_iterations: int = 4096) -> bytes:
        """Run iterations to completion (host-agnostic, zero time).

        Raises :class:`ExecutionFault` if ``max_iterations`` is exceeded,
        mirroring the accelerator's forced termination (section 3.1) --
        callers that want the continuation behaviour should loop over
        :meth:`step` themselves.
        """
        offset, size = self._window_offset, self._window_size
        step_fn = self.step_fn
        for _ in range(max_iterations):
            data = read_fn((self.cur_ptr + offset) & MASK64, size)
            if step_fn(self, data, write_fn)[0]:
                return bytes(self.scratch)
        raise ExecutionFault(
            f"traversal exceeded {max_iterations} iterations")
