"""Kernel builder: the offload engine's "compiler" (section 4.1).

The paper translates iterator C++ into its ISA with standard compiler
machinery and does not innovate there; what *is* pulse-specific -- and
implemented faithfully here -- is the memory-access aggregation: the
builder records every ``data`` field the kernel touches relative to
``cur_ptr``, then at :meth:`KernelBuilder.build` time computes the minimal
covering window, emits a single ``LOAD`` for it at the top of the
iteration, and rebases all data-register offsets into the window.  Without
this step the hash-find kernel would issue three separate loads per node
(key, value, next); with it, one.

The builder is also layout-aware: field operands are derived from the same
:class:`~repro.mem.layout.StructLayout` the serializer used, so kernel and
byte layout cannot drift apart.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.isa.instructions import (
    Bank,
    Instruction,
    IsaError,
    Opcode,
    Operand,
    cur_ptr,
    imm,
    reg,
    sp,
    sp_ind,
)
from repro.isa.program import Program
from repro.mem.layout import StructLayout

_WIDTH_FOR_SIZE = {1: 1, 2: 2, 4: 4, 8: 8}


class KernelBuilder:
    """Fluent construction of pulse programs with label resolution."""

    def __init__(self, name: str, scratch_bytes: int = 64):
        self.name = name
        self.scratch_bytes = scratch_bytes
        self._instructions: List[Instruction] = []
        self._labels: Dict[str, int] = {}
        self._fixups: List[Tuple[int, str]] = []
        #: raw (cur_ptr-relative) data accesses: (offset, width)
        self._data_accesses: List[Tuple[int, int]] = []
        self._built = False

    # -- operand helpers -----------------------------------------------------
    def field(self, layout: StructLayout, field_name: str, index: int = 0,
              signed: bool = True) -> Operand:
        """A ``data`` operand for a struct field (pre-aggregation offset)."""
        offset = layout.offset(field_name, index)
        size = layout.field_size(field_name)
        width = _WIDTH_FOR_SIZE.get(size)
        if width is None:
            # Wide fields (e.g. a 240 B value blob) are moved with
            # memcpy_field, not read as a scalar; default to u64 chunks.
            width = 8
        operand = Operand(Bank.DATA, offset, width, signed)
        self._data_accesses.append((offset, width))
        return operand

    def raw_data(self, offset: int, width: int = 8,
                 signed: bool = True) -> Operand:
        """A ``data`` operand at an explicit cur_ptr-relative offset."""
        operand = Operand(Bank.DATA, offset, width, signed)
        self._data_accesses.append((offset, width))
        return operand

    @staticmethod
    def sp(offset: int, width: int = 8, signed: bool = True) -> Operand:
        return sp(offset, width, signed)

    @staticmethod
    def sp_at(reg_index: int, width: int = 8,
              signed: bool = True) -> Operand:
        """Scratch pad addressed by the offset held in ``r<reg_index>``."""
        return sp_ind(reg_index, width, signed)

    @staticmethod
    def reg(index: int, width: int = 8, signed: bool = True) -> Operand:
        return reg(index, width, signed)

    @staticmethod
    def imm(value: int) -> Operand:
        return imm(value)

    @staticmethod
    def cur_ptr() -> Operand:
        return cur_ptr()

    # -- instruction emitters ------------------------------------------------
    def _emit(self, instruction: Instruction) -> "KernelBuilder":
        if self._built:
            raise IsaError("builder already produced its program")
        self._instructions.append(instruction)
        return self

    def move(self, dst: Operand, src: Operand) -> "KernelBuilder":
        return self._emit(Instruction(Opcode.MOVE, dst=dst, a=src))

    def add(self, dst, a, b):
        return self._emit(Instruction(Opcode.ADD, dst=dst, a=a, b=b))

    def sub(self, dst, a, b):
        return self._emit(Instruction(Opcode.SUB, dst=dst, a=a, b=b))

    def mul(self, dst, a, b):
        return self._emit(Instruction(Opcode.MUL, dst=dst, a=a, b=b))

    def div(self, dst, a, b):
        return self._emit(Instruction(Opcode.DIV, dst=dst, a=a, b=b))

    def bit_and(self, dst, a, b):
        return self._emit(Instruction(Opcode.AND, dst=dst, a=a, b=b))

    def bit_or(self, dst, a, b):
        return self._emit(Instruction(Opcode.OR, dst=dst, a=a, b=b))

    def bit_not(self, dst, a):
        return self._emit(Instruction(Opcode.NOT, dst=dst, a=a))

    def compare(self, a: Operand, b: Operand) -> "KernelBuilder":
        return self._emit(Instruction(Opcode.COMPARE, a=a, b=b))

    def store(self, offset: int, src: Operand) -> "KernelBuilder":
        """STORE ``src`` to memory at ``cur_ptr + offset``."""
        self._data_accesses.append((offset, src.width))
        return self._emit(Instruction(Opcode.STORE, a=src,
                                      mem_offset=offset))

    def label(self, name: str) -> "KernelBuilder":
        if name in self._labels:
            raise IsaError(f"duplicate label {name!r}")
        self._labels[name] = len(self._instructions)
        return self

    def _jump(self, opcode: Opcode, label: str) -> "KernelBuilder":
        self._fixups.append((len(self._instructions), label))
        return self._emit(Instruction(opcode, target=0))

    def jump_eq(self, label):
        return self._jump(Opcode.JUMP_EQ, label)

    def jump_neq(self, label):
        return self._jump(Opcode.JUMP_NEQ, label)

    def jump_lt(self, label):
        return self._jump(Opcode.JUMP_LT, label)

    def jump_gt(self, label):
        return self._jump(Opcode.JUMP_GT, label)

    def jump_le(self, label):
        return self._jump(Opcode.JUMP_LE, label)

    def jump_ge(self, label):
        return self._jump(Opcode.JUMP_GE, label)

    def next_iter(self) -> "KernelBuilder":
        return self._emit(Instruction(Opcode.NEXT_ITER))

    def ret(self) -> "KernelBuilder":
        return self._emit(Instruction(Opcode.RETURN))

    # -- composite helpers -----------------------------------------------------
    def memcpy_field_to_sp(self, sp_offset: int, layout: StructLayout,
                           field_name: str) -> "KernelBuilder":
        """Copy a whole (possibly wide) field into the scratch pad.

        Emitted as a run of 8-byte MOVEs (plus a narrower tail); wide
        copies belong on terminal paths only -- the static analyzer will
        otherwise count them against the per-iteration budget.
        """
        base = layout.offset(field_name)
        size = layout.field_size(field_name)
        copied = 0
        while copied < size:
            chunk = min(8, size - copied)
            width = 8 if chunk == 8 else (4 if chunk >= 4 else 1)
            self.move(sp(sp_offset + copied, width, signed=False),
                      self.raw_data(base + copied, width, signed=False))
            copied += width
        return self

    # -- build -----------------------------------------------------------------
    def build(self, max_load_bytes: int = 256) -> Program:
        """Resolve labels, aggregate loads, and validate the program."""
        if self._built:
            raise IsaError("builder already produced its program")
        if not self._instructions:
            raise IsaError(f"kernel {self.name!r} has no instructions")
        if not self._data_accesses:
            # The ISA requires a per-iteration LOAD; a kernel that never
            # reads memory is not a pointer traversal.
            raise IsaError(
                f"kernel {self.name!r} never touches data; nothing to "
                "traverse")

        window_start = min(off for off, _ in self._data_accesses)
        window_end = max(off + width for off, width in self._data_accesses)
        window_size = window_end - window_start

        # Rebase data offsets into the aggregated window and resolve
        # labels (the LOAD at index 0 shifts all targets by one).
        resolved: List[Instruction] = [
            Instruction(Opcode.LOAD, mem_offset=window_start,
                        mem_size=window_size)
        ]
        fixup_indices = {index: label for index, label in self._fixups}
        for index, instr in enumerate(self._instructions):
            if index in fixup_indices:
                label = fixup_indices[index]
                if label not in self._labels:
                    raise IsaError(f"undefined label {label!r}")
                instr = replace(instr, target=self._labels[label] + 1)
            instr = self._rebase(instr, window_start)
            resolved.append(instr)

        self._built = True
        return Program(self.name, resolved,
                       scratch_bytes=self.scratch_bytes,
                       max_load_bytes=max_load_bytes)

    @staticmethod
    def _rebase(instr: Instruction, window_start: int) -> Instruction:
        def shift(operand: Optional[Operand]) -> Optional[Operand]:
            if operand is None or operand.bank is not Bank.DATA:
                return operand
            return replace(operand, value=operand.value - window_start)

        changed = {}
        for slot in ("dst", "a", "b"):
            operand = getattr(instr, slot)
            shifted = shift(operand)
            if shifted is not operand:
                changed[slot] = shifted
        if instr.opcode is Opcode.STORE:
            changed["mem_offset"] = instr.mem_offset
        return replace(instr, **changed) if changed else instr
