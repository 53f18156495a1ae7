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

``encode``/``decode`` round-trip exactly; :meth:`~repro.isa.program.
Program.wire_bytes` reports the true encoded size (memoized).
"""

from __future__ import annotations

import struct
from typing import Dict, List

from repro.isa.instructions import (
    Bank,
    Instruction,
    IsaError,
    Opcode,
    Operand,
)
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


def _decode_operand(encoded: int, pool: List[int]) -> Operand:
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


def decode(data: bytes) -> Program:
    """Reconstruct a program from wire bytes (validates on the way)."""
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

    instructions: List[Instruction] = []
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
