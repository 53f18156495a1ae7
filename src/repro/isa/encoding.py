"""Binary wire encoding of pulse programs.

Requests carry the program the first time a client uses it (§4.1 "the
offload engine ... encapsulates the ISA instructions (code) ... into a
network request"); this module defines the actual bytes.  Layout::

    header   : magic 'PU' | version u8 | pad u8 | #instr u16 |
               #consts u8 | pad u8                               (8 B)
    scratch  : scratch_bytes u16 | name_len u8 | pad u8 | pad u32 (8 B)
    name     : name_len bytes, padded to 8-byte multiple
    instrs   : #instr x 8 B (below)
    consts   : #consts x i64 -- the constant pool for immediates

Each instruction packs into 8 bytes::

    byte 0   : opcode index
    byte 1   : reserved
    bytes 2-3: field1   (dst operand | LOAD/STORE offset | jump target)
    bytes 4-5: field2   (a operand   | LOAD size)
    bytes 6-7: field3   (b operand)

An operand descriptor is a u16: bank(3) | width-log2(2) | signed(1) |
value(10).  Ten value bits bound direct scratch/data offsets at 1023
(indirect ``sp[rN]`` addressing covers the rest of the pad -- the same
split real accelerator encodings make), and immediates index the
64-bit constant pool, so they are unbounded.  Violations raise
:class:`EncodingError` at encode time with actionable messages.

:meth:`~repro.isa.program.Program.wire_bytes` reports the true encoded
size (memoized); the tests' ``decode`` inverts ``encode`` exactly.
"""

from __future__ import annotations

import struct
from typing import Dict, List

from repro.isa.instructions import Bank, Opcode, Operand
from repro.isa.program import Program

MAGIC = b"PU"
VERSION = 1

_OPCODES = list(Opcode)
_OPCODE_INDEX = {op: i for i, op in enumerate(_OPCODES)}
_BANKS = [Bank.CUR_PTR, Bank.DATA, Bank.SP, Bank.SP_IND, Bank.REG,
          Bank.IMM]
_BANK_INDEX = {bank: i for i, bank in enumerate(_BANKS)}
_WIDTH_LOG2 = {1: 0, 2: 1, 4: 2, 8: 3}

#: sentinel field value for "operand absent"
_NO_OPERAND = 0xFFFF

MAX_DIRECT_OFFSET = (1 << 10) - 1


class EncodingError(Exception):
    """Program cannot be represented in the wire format."""


def _encode_operand(operand: Operand, pool: List[int],
                    pool_index: Dict[int, int]) -> int:
    bank = _BANK_INDEX[operand.bank]
    width = _WIDTH_LOG2[operand.width]
    signed = 1 if operand.signed else 0
    if operand.bank is Bank.IMM:
        value = operand.value
        if value not in pool_index:
            if len(pool) >= 255:
                raise EncodingError(
                    "constant pool overflow (255 distinct immediates)")
            pool_index[value] = len(pool)
            pool.append(value)
        payload = pool_index[value]
    else:
        payload = operand.value
        if not 0 <= payload <= MAX_DIRECT_OFFSET:
            raise EncodingError(
                f"operand offset {payload} exceeds the 10-bit direct "
                f"addressing range ({MAX_DIRECT_OFFSET}); use register-"
                "indexed scratch addressing (sp[rN]) for far offsets")
    return (bank << 13) | (width << 11) | (signed << 10) | payload


def encode(program: Program) -> bytes:
    """Serialize a program to its wire bytes."""
    if len(program) > 0xFFFF:
        raise EncodingError("program too long for u16 instruction count")
    name_bytes = program.name.encode("utf-8")[:255]
    if program.scratch_bytes > 0xFFFF:
        raise EncodingError("scratch size exceeds u16")

    pool: List[int] = []
    pool_index: Dict[int, int] = {}
    body = bytearray()
    for index, instr in enumerate(program.instructions):
        fields = [_NO_OPERAND, _NO_OPERAND, _NO_OPERAND]
        op = instr.opcode
        if op is Opcode.LOAD:
            fields[0] = instr.mem_offset
            fields[1] = instr.mem_size
        elif op is Opcode.STORE:
            fields[0] = instr.mem_offset
            fields[1] = _encode_operand(instr.a, pool, pool_index)
        elif instr.target is not None:
            fields[0] = instr.target
        else:
            for slot, operand in enumerate(
                    (instr.dst, instr.a, instr.b)):
                if operand is not None:
                    fields[slot] = _encode_operand(operand, pool,
                                                   pool_index)
        try:
            body += struct.pack("<BBHHH", _OPCODE_INDEX[op], 0, *fields)
        except struct.error as exc:
            raise EncodingError(f"instruction {index}: {exc}")

    header = struct.pack("<2sBBHBB", MAGIC, VERSION, 0, len(program),
                         len(pool), 0)
    meta = struct.pack("<HBBI", program.scratch_bytes, len(name_bytes),
                       0, 0)
    padded_name = name_bytes + bytes(-len(name_bytes) % 8)
    consts = b"".join(
        value.to_bytes(8, "little", signed=True) for value in pool)
    return header + meta + padded_name + bytes(body) + consts
