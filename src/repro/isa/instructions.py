"""Instruction and operand model for the pulse ISA.

Operands name storage in the accelerator workspace (section 4.2.1):

* ``cur_ptr()`` -- the single pointer register driving the traversal.
* ``Operand(Bank.DATA, offset)`` -- the data register vector, filled by
  the iteration's aggregated LOAD from ``[cur_ptr + window_offset, ...)``.
* ``sp(offset)`` -- the scratch-pad register vector (iterator state and
  return value).
* ``reg(i)`` -- a small general-purpose file for temporaries.
* ``imm(value)`` -- immediates.

All scalars are 64-bit two's-complement; narrower accesses take a
``width`` of 1/2/4/8 bytes (zero-extended on read for unsigned operands,
sign-extended when ``signed=True``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

MASK64 = (1 << 64) - 1
NUM_REGS = 8


class IsaError(Exception):
    """Malformed instruction, operand, or program."""


class ExecutionFault(Exception):
    """Runtime fault during iterator execution (div-by-zero, bad access).

    The accelerator converts these into an error response to the CPU node
    rather than crashing the pipeline.
    """


class Opcode(enum.Enum):
    # memory
    LOAD = "LOAD"
    STORE = "STORE"
    # ALU
    ADD = "ADD"
    SUB = "SUB"
    MUL = "MUL"
    DIV = "DIV"
    AND = "AND"
    OR = "OR"
    NOT = "NOT"
    # register
    MOVE = "MOVE"
    # branch
    COMPARE = "COMPARE"
    JUMP_EQ = "JUMP_EQ"
    JUMP_NEQ = "JUMP_NEQ"
    JUMP_LT = "JUMP_LT"
    JUMP_GT = "JUMP_GT"
    JUMP_LE = "JUMP_LE"
    JUMP_GE = "JUMP_GE"
    # terminal
    RETURN = "RETURN"
    NEXT_ITER = "NEXT_ITER"


ALU_OPCODES = frozenset({
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV,
    Opcode.AND, Opcode.OR, Opcode.NOT,
})

JUMP_OPCODES = frozenset({
    Opcode.JUMP_EQ, Opcode.JUMP_NEQ, Opcode.JUMP_LT,
    Opcode.JUMP_GT, Opcode.JUMP_LE, Opcode.JUMP_GE,
})

#: condition suffixes accepted by the assembler (COMPARE + JUMP_COND)
CONDITIONS = ("EQ", "NEQ", "LT", "GT", "LE", "GE")

_VALID_WIDTHS = (1, 2, 4, 8)


class Bank(enum.Enum):
    CUR_PTR = "cur_ptr"
    DATA = "data"
    SP = "sp"
    #: scratch pad addressed indirectly: the byte offset comes from a
    #: general-purpose register ("register operations directly on the
    #: scratch_pad", section 4.1) -- what lets scan kernels append results
    #: at a moving cursor.  ``value`` is the register index.
    SP_IND = "sp_ind"
    REG = "reg"
    IMM = "imm"


@dataclass(frozen=True)
class Operand:
    """A storage reference or immediate."""

    bank: Bank
    value: int = 0      # offset for DATA/SP, index for REG, literal for IMM
    width: int = 8
    signed: bool = True

    def __post_init__(self):
        if self.width not in _VALID_WIDTHS:
            raise IsaError(f"invalid operand width: {self.width}")
        if (self.bank in (Bank.REG, Bank.SP_IND)
                and not 0 <= self.value < NUM_REGS):
            raise IsaError(f"register index out of range: {self.value}")
        if self.bank in (Bank.DATA, Bank.SP) and self.value < 0:
            raise IsaError(f"negative {self.bank.value} offset: {self.value}")

    @property
    def is_writable(self) -> bool:
        return self.bank is not Bank.IMM


def cur_ptr() -> Operand:
    return Operand(Bank.CUR_PTR, 0, 8, signed=False)



def sp(offset: int, width: int = 8, signed: bool = True) -> Operand:
    return Operand(Bank.SP, offset, width, signed)


def sp_ind(reg_index: int) -> Operand:
    """Scratch pad addressed by the byte offset held in ``r<reg_index>``
    (an 8-byte signed word)."""
    return Operand(Bank.SP_IND, reg_index, 8, True)


def reg(index: int, width: int = 8, signed: bool = True) -> Operand:
    return Operand(Bank.REG, index, width, signed)


def imm(value: int) -> Operand:
    return Operand(Bank.IMM, value, 8, signed=True)


#: bytes per encoded instruction on the wire (fixed-size encoding, §4.1)
INSTRUCTION_WIRE_BYTES = 8


@dataclass(frozen=True)
class Instruction:
    """One pulse instruction.

    Field use by opcode:

    * ``LOAD offset size`` -- aggregated load of ``size`` bytes from
      ``cur_ptr + offset`` into the data register vector (one per
      iteration, placed first by the offload engine).
    * ``STORE offset src`` -- write ``src`` to memory at
      ``cur_ptr + offset``.
    * ALU ops -- ``dst, a, b`` (``NOT`` uses ``dst, a``).
    * ``MOVE dst, a``.
    * ``COMPARE a, b`` -- sets the flags consumed by the next JUMP.
    * ``JUMP_cond target`` -- forward-only branch to instruction index
      ``target`` (resolved from labels at assembly).
    * ``NEXT_ITER`` / ``RETURN`` -- terminals.
    """

    opcode: Opcode
    dst: Optional[Operand] = None
    a: Optional[Operand] = None
    b: Optional[Operand] = None
    target: Optional[int] = None          # jump target (instruction index)
    mem_offset: int = 0                   # LOAD/STORE offset vs cur_ptr
    mem_size: int = 0                     # LOAD size

    def validate(self, index: int, program_length: int) -> None:
        op = self.opcode
        if op is Opcode.LOAD:
            if self.mem_size <= 0:
                raise IsaError(f"[{index}] LOAD with non-positive size")
        elif op is Opcode.STORE:
            if self.a is None:
                raise IsaError(f"[{index}] STORE needs a source operand")
        elif op in ALU_OPCODES:
            if self.dst is None or self.a is None:
                raise IsaError(f"[{index}] {op.value} needs dst and a")
            if op is not Opcode.NOT and self.b is None:
                raise IsaError(f"[{index}] {op.value} needs two sources")
            if not self.dst.is_writable:
                raise IsaError(f"[{index}] {op.value} dst not writable")
        elif op is Opcode.MOVE:
            if self.dst is None or self.a is None:
                raise IsaError(f"[{index}] MOVE needs dst and src")
            if not self.dst.is_writable:
                raise IsaError(f"[{index}] MOVE dst not writable")
        elif op is Opcode.COMPARE:
            if self.a is None or self.b is None:
                raise IsaError(f"[{index}] COMPARE needs two operands")
        elif op in JUMP_OPCODES:
            if self.target is None:
                raise IsaError(f"[{index}] {op.value} without target")
            if self.target <= index:
                raise IsaError(
                    f"[{index}] backward jump to {self.target}: the pulse "
                    "ISA only permits forward jumps (section 4.1); loops "
                    "happen via NEXT_ITER")
            if self.target >= program_length:
                raise IsaError(
                    f"[{index}] jump target {self.target} out of program")
        elif op in (Opcode.RETURN, Opcode.NEXT_ITER):
            pass
        else:  # pragma: no cover -- enum is closed
            raise IsaError(f"[{index}] unknown opcode {op!r}")


def to_signed(value: int, width: int = 8) -> int:
    """Interpret ``value`` (unsigned) as a two's-complement signed int."""
    bits = width * 8
    value &= (1 << bits) - 1
    if value >= 1 << (bits - 1):
        return value - (1 << bits)
    return value


def wrap64(value: int) -> int:
    return value & MASK64
