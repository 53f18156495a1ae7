"""Two-way text form for pulse programs.

The assembler exists for tests, debugging dumps, and the examples: kernels
produced by the kernel builder (:mod:`repro.core.kernel`) can be
round-tripped through text and inspected.  Syntax, one instruction per
line::

    ; comment                         .name hash_find
    label:                            .scratch 64
    LOAD 0 56                         ; LOAD <offset> <size>
    COMPARE sp[0] data[0]
    JUMP_EQ found
    MOVE cur_ptr data[48]
    STORE 16 sp[8]                    ; STORE <offset> <src>
    NEXT_ITER
    found:
    MOVE sp[8] data[8]:4              ; :N = access width in bytes
    RETURN

Operands: ``cur_ptr``, ``sp[off]``, ``data[off]``, ``r<i>``, ``#imm``;
append ``:1/2/4/8`` for narrow accesses and a ``u`` flag (``:4u``) for
unsigned.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from repro.isa.instructions import (
    ALU_OPCODES,
    JUMP_OPCODES,
    Bank,
    Instruction,
    IsaError,
    Opcode,
    Operand,
)
from repro.isa.program import Program

_OPERAND_RE = re.compile(
    r"^(?:"
    r"(?P<curptr>cur_ptr)"
    r"|sp\[r(?P<spind>\d+)\]"
    r"|(?P<bank>sp|data)\[(?P<offset>-?\d+)\]"
    r"|r(?P<reg>\d+)"
    r"|#(?P<imm>-?(?:0x[0-9a-fA-F]+|\d+))"
    r")(?::(?P<width>[1248])(?P<unsigned>u?))?$"
)

_LABEL_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*):$")


def _parse_operand(text: str) -> Operand:
    match = _OPERAND_RE.match(text)
    if not match:
        raise IsaError(f"cannot parse operand {text!r}")
    width = int(match.group("width") or 8)
    signed = not match.group("unsigned")
    if match.group("curptr"):
        return Operand(Bank.CUR_PTR, 0, 8, signed=False)
    if match.group("spind") is not None:
        return Operand(Bank.SP_IND, int(match.group("spind")), width,
                       signed)
    if match.group("bank"):
        bank = Bank.SP if match.group("bank") == "sp" else Bank.DATA
        return Operand(bank, int(match.group("offset")), width, signed)
    if match.group("reg") is not None:
        return Operand(Bank.REG, int(match.group("reg")), width, signed)
    return Operand(Bank.IMM, int(match.group("imm"), 0), 8, signed=True)


def assemble(source: str) -> Program:
    """Assemble text into a validated :class:`Program`."""
    pending: List[Tuple[str, List[str], int]] = []  # (opcode, args, lineno)
    labels: Dict[str, int] = {}
    directives: Dict[str, str] = {}

    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            parts = line[1:].split(None, 1)
            if len(parts) != 2:
                raise IsaError(f"line {lineno}: malformed directive {line!r}")
            directives[parts[0]] = parts[1].strip()
            continue
        label_match = _LABEL_RE.match(line)
        if label_match:
            label = label_match.group(1)
            if label in labels:
                raise IsaError(f"line {lineno}: duplicate label {label!r}")
            labels[label] = len(pending)
            continue
        tokens = line.split()
        pending.append((tokens[0].upper(), tokens[1:], lineno))

    instructions: List[Instruction] = []
    for index, (mnemonic, args, lineno) in enumerate(pending):
        try:
            opcode = Opcode(mnemonic)
        except ValueError:
            raise IsaError(f"line {lineno}: unknown opcode {mnemonic!r}")
        instructions.append(
            _build(opcode, args, labels, index, lineno))

    return Program(directives.get("name", "program"), instructions,
                   scratch_bytes=int(directives.get("scratch", "64")))


def _build(opcode: Opcode, args: List[str], labels: Dict[str, int],
           index: int, lineno: int) -> Instruction:
    def need(n: int) -> None:
        if len(args) != n:
            raise IsaError(
                f"line {lineno}: {opcode.value} takes {n} arguments, "
                f"got {len(args)}")

    if opcode is Opcode.LOAD:
        need(2)
        return Instruction(opcode, mem_offset=int(args[0], 0),
                           mem_size=int(args[1], 0))
    if opcode is Opcode.STORE:
        need(2)
        return Instruction(opcode, mem_offset=int(args[0], 0),
                           a=_parse_operand(args[1]))
    if opcode is Opcode.NOT:
        need(2)
        return Instruction(opcode, dst=_parse_operand(args[0]),
                           a=_parse_operand(args[1]))
    if opcode in ALU_OPCODES:
        need(3)
        return Instruction(opcode, dst=_parse_operand(args[0]),
                           a=_parse_operand(args[1]),
                           b=_parse_operand(args[2]))
    if opcode is Opcode.MOVE:
        need(2)
        return Instruction(opcode, dst=_parse_operand(args[0]),
                           a=_parse_operand(args[1]))
    if opcode is Opcode.COMPARE:
        need(2)
        return Instruction(opcode, a=_parse_operand(args[0]),
                           b=_parse_operand(args[1]))
    if opcode in JUMP_OPCODES:
        need(1)
        label = args[0]
        if label not in labels:
            raise IsaError(f"line {lineno}: undefined label {label!r}")
        return Instruction(opcode, target=labels[label])
    # RETURN / NEXT_ITER
    need(0)
    return Instruction(opcode)


def disassemble(program: Program) -> str:
    """Render a program back to assembler text (labels synthesized)."""
    targets = sorted({
        instr.target for instr in program.instructions
        if instr.target is not None
    })
    label_names = {t: f"L{t}" for t in targets}

    lines = [f".name {program.name}", f".scratch {program.scratch_bytes}"]
    for i, instr in enumerate(program.instructions):
        if i in label_names:
            lines.append(f"{label_names[i]}:")
        lines.append(_format(instr, label_names))
    return "\n".join(lines)


def _format(instr: Instruction, label_names: Dict[int, str]) -> str:
    op = instr.opcode
    if op is Opcode.LOAD:
        return f"LOAD {instr.mem_offset} {instr.mem_size}"
    if op is Opcode.STORE:
        return f"STORE {instr.mem_offset} {_operand_text(instr.a)}"
    if op in JUMP_OPCODES:
        return f"{op.value} {label_names[instr.target]}"
    parts = [op.value]
    for operand in (instr.dst, instr.a, instr.b):
        if operand is not None:
            parts.append(_operand_text(operand))
    return " ".join(parts)


def _operand_text(operand: Operand) -> str:
    suffix = ""
    if operand.width != 8 or (not operand.signed
                              and operand.bank not in (Bank.CUR_PTR,)):
        suffix = f":{operand.width}{'' if operand.signed else 'u'}"
    if operand.bank is Bank.CUR_PTR:
        return "cur_ptr"
    if operand.bank is Bank.IMM:
        return f"#{operand.value}"
    if operand.bank is Bank.REG:
        return f"r{operand.value}{suffix}"
    if operand.bank is Bank.SP_IND:
        return f"sp[r{operand.value}]{suffix}"
    return f"{operand.bank.value}[{operand.value}]{suffix}"
