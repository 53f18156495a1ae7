"""Threaded-code compiler for pulse programs (the simulator's fast path).

:func:`compile_program` lowers a validated
:class:`~repro.isa.program.Program` once into *threaded code*: a flat
table with one specialized Python callable per instruction, indexed by
pc.  Each callable does exactly its instruction's work against the
machine frame and returns the next pc; branch targets are resolved to
table indices at compile time, and the two terminals return negative
sentinels (:data:`PC_RETURN` / :data:`PC_NEXT_ITER`).

All operand decoding -- bank dispatch, width, signedness, immediates,
static bounds checks -- happens here, once per program, instead of once
per *executed* instruction as in the interpreter.  Scalar accesses are
specialized to pre-bound :mod:`struct` codecs (``unpack_from`` reads
straight out of the data/scratch buffers, ``pack_into`` writes the
scratch pad in place), so the interpreter's per-read ``bytes(buf[a:b])``
copies disappear entirely.  Only accesses whose bounds cannot be proven
at compile time (``sp_ind``, whose offset lives in a register) keep a
runtime check, with the interpreter's exact fault message.

Compilation results are cached process-wide by the program's 16-byte
content digest -- the same key the offload engine's deploy-once cache
uses -- so repeated requests for the same kernel, from any execution
substrate or any simulated rack in the process, never recompile.

The interpreter remains the semantic oracle: setting ``PULSE_INTERP=1``
in the environment forces every newly constructed
:class:`~repro.isa.interpreter.IteratorMachine` onto the interpreted
path, and the differential suite (tests/test_compiler_differential.py)
holds the two byte-identical, fault-for-fault.
"""

from __future__ import annotations

import os
import struct
from typing import Callable, Dict, List, Tuple

from repro.isa.instructions import (
    ALU_OPCODES,
    Bank,
    ExecutionFault,
    Instruction,
    JUMP_OPCODES,
    MASK64,
    Opcode,
    Operand,
)
from repro.isa.program import Program

__all__ = [
    "CompiledProgram",
    "PC_NEXT_ITER",
    "PC_RETURN",
    "compile_cache_size",
    "compile_program",
    "clear_compile_cache",
    "interpreter_forced",
]

#: sentinel next-pc values returned by the terminal callables
PC_RETURN = -1
PC_NEXT_ITER = -2

_TWO64 = 1 << 64
_SIGN_BIT = 1 << 63

#: (width, signed) -> struct codec for little-endian scalar access
_CODECS = {
    (1, False): struct.Struct("<B"), (1, True): struct.Struct("<b"),
    (2, False): struct.Struct("<H"), (2, True): struct.Struct("<h"),
    (4, False): struct.Struct("<I"), (4, True): struct.Struct("<i"),
    (8, False): struct.Struct("<Q"), (8, True): struct.Struct("<q"),
}

_ALU_SYMBOL = {
    Opcode.ADD: "+",
    Opcode.SUB: "-",
    Opcode.MUL: "*",
    Opcode.AND: "&",
    Opcode.OR: "|",
}

_JUMP_EXPR = {
    Opcode.JUMP_EQ: "{t} if m._flag_eq else {n}",
    Opcode.JUMP_NEQ: "{n} if m._flag_eq else {t}",
    Opcode.JUMP_LT: "{t} if m._flag_lt else {n}",
    Opcode.JUMP_GT: "{n} if m._flag_lt or m._flag_eq else {t}",
    Opcode.JUMP_LE: "{t} if m._flag_lt or m._flag_eq else {n}",
    Opcode.JUMP_GE: "{n} if m._flag_lt else {t}",
}


def interpreter_forced() -> bool:
    """True when ``PULSE_INTERP`` requests the interpreted oracle path."""
    return os.environ.get("PULSE_INTERP", "").strip() not in ("", "0")


def _raise_line(message: str) -> str:
    return f"raise ExecutionFault({message!r})"


def _read_operand(operand: Operand, slot: str, window_size: int,
                  scratch_bytes: int) -> Tuple[List[str], str]:
    """(prelude lines, expression) evaluating ``operand`` on frame ``m``.

    The prelude carries runtime bounds checks (``sp_ind``) or a
    statically-detected out-of-bounds fault; the expression is then a
    single specialized access.
    """
    bank = operand.bank
    if bank is Bank.IMM:
        return [], repr(operand.value)
    if bank is Bank.CUR_PTR:
        return [], "m.cur_ptr"
    if bank is Bank.REG:
        index = operand.value
        if operand.signed:
            # Registers hold 64-bit wrapped values; reinterpret as two's
            # complement without a helper call.
            var = f"_r{slot}"
            return ([f"{var} = m.regs[{index}]"],
                    f"({var} - {_TWO64} if {var} >= {_SIGN_BIT}"
                    f" else {var})")
        return [], f"m.regs[{index}]"
    width = operand.width
    load = f"ld{width}{'s' if operand.signed else 'u'}"
    if bank is Bank.SP_IND:
        index = operand.value
        var = f"_o{slot}"
        return ([
            f"{var} = m.regs[{index}]",
            f"if {var} < 0 or {var} + {width} > {scratch_bytes}:",
            f"    raise ExecutionFault('indirect scratch pad read "
            f"[%d:%d] beyond {scratch_bytes} B' "
            f"% ({var}, {var} + {width}))",
        ], f"{load}(m.scratch, {var})[0]")
    offset = operand.value
    end = offset + width
    if bank is Bank.DATA:
        if end > window_size:
            return [_raise_line(f"data read [{offset}:{end}] beyond "
                                f"{window_size} B")], "0"
        return [], f"{load}(m.data, {offset})[0]"
    # Bank.SP
    if end > scratch_bytes:
        return [_raise_line(f"scratch pad read [{offset}:{end}] beyond "
                            f"{scratch_bytes} B")], "0"
    return [], f"{load}(m.scratch, {offset})[0]"


def _write_operand(operand: Operand, value_expr: str,
                   scratch_bytes: int) -> List[str]:
    """Lines storing ``value_expr`` into ``operand`` on frame ``m``."""
    bank = operand.bank
    if bank is Bank.CUR_PTR:
        return [f"m.cur_ptr = ({value_expr}) & {MASK64}"]
    if bank is Bank.REG:
        return [f"m.regs[{operand.value}] = ({value_expr}) & {MASK64}"]
    width = operand.width
    mask = (1 << (8 * width)) - 1
    if bank is Bank.SP:
        offset = operand.value
        end = offset + width
        if end > scratch_bytes:
            return [_raise_line(f"scratch pad write [{offset}:{end}] "
                                f"beyond {scratch_bytes} B")]
        return [f"st{width}(m.scratch, {offset}, "
                f"({value_expr}) & {mask})"]
    if bank is Bank.SP_IND:
        index = operand.value
        return [
            f"_od = m.regs[{index}]",
            f"if _od < 0 or _od + {width} > {scratch_bytes}:",
            f"    raise ExecutionFault('scratch pad write [%d:%d] "
            f"beyond {scratch_bytes} B' % (_od, _od + {width}))",
            f"st{width}(m.scratch, _od, ({value_expr}) & {mask})",
        ]
    if bank is Bank.DATA:
        return [_raise_line("the data register vector is read-only "
                            "(loaded from memory each iteration)")]
    return [_raise_line(f"cannot write operand bank {operand.bank}")]


def _instruction_body(instr: Instruction, pc: int, window_size: int,
                      scratch_bytes: int) -> List[str]:
    """Body lines of the threaded-code callable for one instruction."""
    op = instr.opcode
    nxt = pc + 1
    if op is Opcode.LOAD:
        # Index 0 is never dispatched: the driver performs the memory
        # phase before entering the table at pc=1.
        return [_raise_line("LOAD dispatched outside the memory phase")]
    if op is Opcode.RETURN:
        return [f"return {PC_RETURN}"]
    if op is Opcode.NEXT_ITER:
        return [f"return {PC_NEXT_ITER}"]
    if op in JUMP_OPCODES:
        expr = _JUMP_EXPR[op].format(t=instr.target, n=nxt)
        return [f"return {expr}"]
    if op is Opcode.COMPARE:
        pre_a, expr_a = _read_operand(instr.a, "a", window_size,
                                      scratch_bytes)
        pre_b, expr_b = _read_operand(instr.b, "b", window_size,
                                      scratch_bytes)
        return pre_a + [f"_a = {expr_a}"] + pre_b + [
            f"_b = {expr_b}",
            "m._flag_eq = _a == _b",
            "m._flag_lt = _a < _b",
            f"return {nxt}",
        ]
    if op is Opcode.MOVE:
        pre_a, expr_a = _read_operand(instr.a, "a", window_size,
                                      scratch_bytes)
        return (pre_a
                + _write_operand(instr.dst, expr_a, scratch_bytes)
                + [f"return {nxt}"])
    if op is Opcode.STORE:
        # The substrate check precedes the operand read, exactly as the
        # interpreter orders it.
        width = instr.a.width
        mask = (1 << (8 * width)) - 1
        pre_a, expr_a = _read_operand(instr.a, "a", window_size,
                                      scratch_bytes)
        return [
            "if m._store_fn is None:",
            "    raise ExecutionFault("
            "'STORE executed on a read-only substrate')",
        ] + pre_a + [
            f"m._store_fn((m.cur_ptr + {instr.mem_offset}) & {MASK64}, "
            f"pk{width}(({expr_a}) & {mask}))",
            f"m._stored += {width}",
            f"return {nxt}",
        ]
    if op in ALU_OPCODES:
        pre_a, expr_a = _read_operand(instr.a, "a", window_size,
                                      scratch_bytes)
        if op is Opcode.NOT:
            return (pre_a
                    + _write_operand(instr.dst, f"~({expr_a})",
                                     scratch_bytes)
                    + [f"return {nxt}"])
        pre_b, expr_b = _read_operand(instr.b, "b", window_size,
                                      scratch_bytes)
        if op is Opcode.DIV:
            # C-style truncation toward zero, div-by-zero faulting --
            # the interpreter's exact semantics.
            return pre_a + [f"_a = {expr_a}"] + pre_b + [
                f"_b = {expr_b}",
                "if _b == 0:",
                "    raise ExecutionFault('division by zero')",
                "_v = abs(_a) // abs(_b)",
                "if (_a < 0) != (_b < 0):",
                "    _v = -_v",
            ] + _write_operand(instr.dst, "_v", scratch_bytes) + [
                f"return {nxt}",
            ]
        symbol = _ALU_SYMBOL[op]
        return pre_a + [f"_a = {expr_a}"] + pre_b + [
            f"_b = {expr_b}",
        ] + _write_operand(instr.dst, f"_a {symbol} _b",
                           scratch_bytes) + [f"return {nxt}"]
    raise ExecutionFault(f"cannot compile opcode {op!r}")  # pragma: no cover


def _base_namespace() -> Dict[str, object]:
    namespace: Dict[str, object] = {"ExecutionFault": ExecutionFault}
    for (width, signed), codec in _CODECS.items():
        suffix = "s" if signed else "u"
        namespace[f"ld{width}{suffix}"] = codec.unpack_from
        if not signed:
            namespace[f"st{width}"] = codec.pack_into
            namespace[f"pk{width}"] = codec.pack
    return namespace


class CompiledProgram:
    """A program lowered to a threaded-code callable table.

    ``ops[pc](machine)`` executes instruction ``pc`` against the machine
    frame and returns the next pc (or a negative terminal sentinel).
    ``source`` keeps the generated Python for debugging and tests.
    """

    __slots__ = ("name", "window_offset", "window_size", "scratch_bytes",
                 "ops", "source")

    def __init__(self, program: Program):
        self.name = program.name
        self.window_offset, self.window_size = program.load_window
        self.scratch_bytes = program.scratch_bytes
        lines: List[str] = []
        for pc, instr in enumerate(program.instructions):
            lines.append(f"def _op{pc}(m):")
            body = _instruction_body(instr, pc, self.window_size,
                                     self.scratch_bytes)
            lines.extend("    " + line for line in body)
        self.source = "\n".join(lines) + "\n"
        namespace = _base_namespace()
        code = compile(self.source, f"<pulse-kernel:{program.name}>",
                       "exec")
        exec(code, namespace)
        self.ops: List[Callable[[object], int]] = [
            namespace[f"_op{pc}"]
            for pc in range(len(program.instructions))
        ]


#: process-wide compile cache, keyed by program content digest
_CACHE: Dict[bytes, CompiledProgram] = {}


def compile_program(program: Program) -> CompiledProgram:
    """Threaded code for ``program``, compiled at most once per content.

    Two separately constructed programs with identical encoded content
    share one :class:`CompiledProgram` (digest-keyed, like the offload
    engine's deploy-once cache).
    """
    digest = program.digest()
    compiled = _CACHE.get(digest)
    if compiled is None:
        compiled = CompiledProgram(program)
        _CACHE[digest] = compiled
    return compiled


def compile_cache_size() -> int:
    return len(_CACHE)


def clear_compile_cache() -> None:
    _CACHE.clear()
