"""Iteration-body compiler for pulse programs (the simulator's fast path).

:func:`compile_program` lowers a validated
:class:`~repro.isa.program.Program` once into **one Python function per
iteration body**: ``kernel(machine, data, store_fn) -> (done,
instructions_executed)``.  The function is handed the bytes of the
iteration's aggregated LOAD and runs the logic phase to its terminal;
there is no per-instruction dispatch of any kind.

Forward-only jumps make the body a DAG, and the lowering uses that:

* **Control flow.**  Straight-line code between jump targets is emitted
  inline; a conditional jump is ``if cond: <leave for the target>`` with
  the fall-through simply following.  Every jump target opens a block
  guarded on one "next block" local and blocks are laid out in pc order,
  so a taken jump skips forward over the blocks it bypasses.
* **Exact instruction count.**  Each exit from a block adds the static
  length of the straight-line path that led to it, so
  ``instructions_executed`` equals the interpreter's on every path (it
  sets the modeled logic time).
* **State in locals.**  ``cur_ptr``, the registers the program names and
  the flags live in locals: loaded at entry only when live-in, written
  back at the terminals only when live-in *and* written (one reverse
  liveness pass over the DAG, iterated to the fixed point "live at a
  terminal iff live at entry", because a frame's registers and flags
  persist across iterations).  ``cur_ptr`` writes go through to the frame
  at once -- a fault reply carries it.  A COMPARE whose flags die with
  the JUMP behind it becomes one relational test.
* **One decode of the LOAD window.**  Every in-window data field whose
  bytes no differently-shaped field overlaps is unpacked by a single
  precompiled :class:`struct.Struct` at entry; scratch-pad words read at
  more than one site get the same treatment when nothing can alias them
  (no ``sp_ind`` operand in the program, one access shape per word).
  Scratch stores always write through, so the pad equals the
  interpreter's at every point that can raise.

Checks the compiler proves statically (direct offsets against the window
and the pad) cost nothing at run time, or become an unconditional
``raise`` with the interpreter's text; what depends on run-time values
(``sp_ind`` bounds, division by zero, STORE on a read-only substrate)
stays a run-time check with the interpreter's exact message.

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
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional, Set,
                    Tuple)

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
    "compile_cache_size",
    "compile_program",
    "clear_compile_cache",
    "interpreter_forced",
]

_TWO64 = 1 << 64
_SIGN_BIT = 1 << 63

#: (width, signed) -> struct format character (little-endian scalars)
_CODES = {
    (1, False): "B", (1, True): "b", (2, False): "H", (2, True): "h",
    (4, False): "I", (4, True): "i", (8, False): "Q", (8, True): "q",
}

_ALU_SYMBOL = {
    Opcode.ADD: "+",
    Opcode.SUB: "-",
    Opcode.MUL: "*",
    Opcode.AND: "&",
    Opcode.OR: "|",
}

#: a JUMP fused with the COMPARE before it: one relational test
_RELATION = {
    Opcode.JUMP_EQ: "==", Opcode.JUMP_NEQ: "!=", Opcode.JUMP_LT: "<",
    Opcode.JUMP_GT: ">", Opcode.JUMP_LE: "<=", Opcode.JUMP_GE: ">=",
}

#: a JUMP on flags some earlier COMPARE (or iteration) left behind
_FLAG_TEST = {
    Opcode.JUMP_EQ: "_eq", Opcode.JUMP_NEQ: "not _eq",
    Opcode.JUMP_LT: "_lt", Opcode.JUMP_GT: "not (_lt or _eq)",
    Opcode.JUMP_LE: "_lt or _eq", Opcode.JUMP_GE: "not _lt",
}

_TERMINALS = (Opcode.RETURN, Opcode.NEXT_ITER)

#: longest jump-target code copied into the jumps that reach it
_TAIL_LIMIT = 4

#: names every generated function resolves as globals
_NAMESPACE: Dict[str, object] = {"ExecutionFault": ExecutionFault}
for (_width, _signed), _code in _CODES.items():
    _codec = struct.Struct("<" + _code)
    _suffix = f"{_width}{'s' if _signed else 'u'}"
    _NAMESPACE[f"ld{_suffix}"] = _codec.unpack_from
    _NAMESPACE[f"st{_suffix}"] = _codec.pack_into
    if not _signed:
        _NAMESPACE[f"pk{_width}"] = _codec.pack


def interpreter_forced() -> bool:
    """True when ``PULSE_INTERP`` requests the interpreted oracle path."""
    return os.environ.get("PULSE_INTERP", "").strip() not in ("", "0")


class _StaticFault(Exception):
    """An access the compiler proves out of bounds: lowered to a raise."""


def _masked(expr: str, mask: int) -> str:
    """``expr`` truncated to ``mask``, folded when it is a literal."""
    try:
        return repr(int(expr.strip("()")) & mask)
    except ValueError:
        return f"{expr} & {mask}" if expr.isidentifier() \
            else f"({expr}) & {mask}"


def _unaliased(shapes: Iterable[tuple]) -> Set[tuple]:
    """The ``(offset, width, ...)`` access shapes whose bytes no
    *different* shape touches."""
    distinct = set(shapes)
    return {
        shape for shape in distinct
        if not any(other[0] < shape[0] + shape[1]
                   and shape[0] < other[0] + other[1]
                   for other in distinct if other != shape)}


def _window_struct(fields: List[Tuple[int, int, bool]]) -> struct.Struct:
    """One codec for sorted, disjoint ``(offset, width, signed)`` fields,
    pad bytes between them."""
    layout, cursor = "<", 0
    for offset, width, signed in fields:
        if offset > cursor:
            layout += f"{offset - cursor}x"
        layout += _CODES[width, signed]
        cursor = offset + width
    return struct.Struct(layout)


def _state_read(operands: Iterable[Optional[Operand]]) -> Set[str]:
    """Frame locals the given *source* operands read."""
    used = set()
    for operand in operands:
        if operand is None:
            continue
        if operand.bank in (Bank.REG, Bank.SP_IND):
            used.add(f"r{operand.value}")
        elif operand.bank is Bank.CUR_PTR:
            used.add("cur_ptr")
    return used


class _Lowering:
    """One program's iteration body, lowered to the source of a single
    function (``source``) plus the per-program codecs it names
    (``codecs``)."""

    def __init__(self, program: Program):
        self.instructions = program.instructions
        self.window_size = program.load_window[1]
        self.scratch_bytes = program.scratch_bytes
        self.codecs: Dict[str, Callable] = {}
        self._lines: List[str] = []
        self._indent = 1
        self._split_blocks()
        self._liveness()
        self._plan_window()
        self._plan_scratch()
        header = self._entry_lines()
        self._body()
        self.source = "\n".join(
            ["def _kernel(m, data, store_fn):"] + header + self._lines
            + ["    raise ExecutionFault('fell off the end of the program')"]
        ) + "\n"

    # -- static facts -------------------------------------------------------
    def _split_blocks(self) -> None:
        """Which jump targets open a block.  A target whose code is a few
        jump-free instructions ending in a terminal (``MOVE cur_ptr ..;
        NEXT_ITER``) is copied into each jump that names it instead, so
        the common exits of a kernel return without leaving their block."""
        instructions = self.instructions
        targets = {instr.target for instr in instructions
                   if instr.opcode in JUMP_OPCODES}
        #: target pc -> the instructions a jump there runs, inlined
        self._tails: Dict[int, List[Instruction]] = {}
        for target in targets:
            for pc in range(target, min(target + _TAIL_LIMIT,
                                        len(instructions))):
                opcode = instructions[pc].opcode
                if opcode in JUMP_OPCODES or (pc > target and pc in targets):
                    break
                if opcode in _TERMINALS:
                    self._tails[target] = instructions[target:pc + 1]
                    break
        self._labels = targets - set(self._tails)

    def _liveness(self) -> None:
        """Which frame locals (``cur_ptr``, ``rN``, ``flags``) are live
        where.  Backward over the DAG in pc order; a terminal's live-out
        is the entry's live-in, iterated until that stops growing."""
        instructions = self.instructions
        count = len(instructions)
        uses: List[Set[str]] = [set() for _ in range(count)]
        defs: List[Set[str]] = [set() for _ in range(count)]
        for pc, instr in enumerate(instructions[1:], start=1):
            op = instr.opcode
            uses[pc] = _state_read((instr.a, instr.b))
            dst = instr.dst
            if dst is not None:
                if dst.bank is Bank.SP_IND:
                    uses[pc].add(f"r{dst.value}")
                elif dst.bank is Bank.REG:
                    defs[pc].add(f"r{dst.value}")
                elif dst.bank is Bank.CUR_PTR:
                    defs[pc].add("cur_ptr")
            if op is Opcode.STORE:
                uses[pc].add("cur_ptr")
            elif op is Opcode.COMPARE:
                defs[pc].add("flags")
            elif op in JUMP_OPCODES:
                uses[pc].add("flags")

        live_in: List[FrozenSet[str]] = [frozenset()] * (count + 1)
        live_out: List[FrozenSet[str]] = [frozenset()] * count
        entry: FrozenSet[str] = frozenset()
        while True:
            for pc in range(count - 1, 0, -1):
                instr = instructions[pc]
                if instr.opcode in _TERMINALS:
                    out = entry
                else:
                    out = live_in[pc + 1]
                    if instr.opcode in JUMP_OPCODES:
                        out = out | live_in[instr.target]
                live_out[pc] = out
                live_in[pc] = frozenset(uses[pc] | (out - defs[pc]))
            if live_in[1] == entry:
                break
            entry = live_in[1]
        self._live_out = live_out
        #: loaded from the frame at entry
        self._live_in = sorted(entry)
        #: stored to the frame at every terminal (cur_ptr writes through)
        self._written_back = sorted(
            (entry & set().union(*defs)) - {"cur_ptr"})
        self._reads_cur_ptr = any("cur_ptr" in used for used in uses)

    def _operands(self):
        """(operand, is_read) for every operand of the logic body."""
        for instr in self.instructions[1:]:
            for operand in (instr.a, instr.b):
                if operand is not None:
                    yield operand, True
            if instr.dst is not None:
                yield instr.dst, False

    def _plan_window(self) -> None:
        """Data fields decoded once at entry: in-window and unaliased."""
        fields = _unaliased(
            (operand.value, operand.width, operand.signed)
            for operand, is_read in self._operands()
            if is_read and operand.bank is Bank.DATA
            and operand.value + operand.width <= self.window_size)
        self._fields = sorted(fields)

    def _plan_scratch(self) -> None:
        """Scratch words held in a local: read at two sites or more, one
        access shape over their bytes, and no ``sp_ind`` in the program
        (an indirect access could alias any word)."""
        #: (offset, width) -> signedness the word is accessed with
        self._words: Dict[Tuple[int, int], bool] = {}
        shapes = []
        read_sites: Dict[Tuple[int, int, bool], int] = {}
        for operand, is_read in self._operands():
            if operand.bank is Bank.SP_IND:
                return
            if operand.bank is Bank.SP:
                shape = (operand.value, operand.width, operand.signed)
                shapes.append(shape)
                read_sites[shape] = read_sites.get(shape, 0) + is_read
        self._words = {
            (offset, width): signed
            for offset, width, signed in _unaliased(shapes)
            if offset + width <= self.scratch_bytes
            and read_sites[offset, width, signed] > 1}

    def _entry_lines(self) -> List[str]:
        lines = []
        if any(operand.bank in (Bank.SP, Bank.SP_IND)
               for operand, _ in self._operands()):
            lines.append("sp = m.scratch")
        if self._fields:
            self.codecs["unpack_window"] = \
                _window_struct(self._fields).unpack_from
            names = ", ".join(f"d{offset}" for offset, _, _ in self._fields)
            lines.append(f"{names}, = unpack_window(data)")
        if self._words:
            words = sorted((offset, width, signed) for (offset, width), signed
                           in self._words.items())
            self.codecs["unpack_scratch"] = _window_struct(words).unpack_from
            names = ", ".join(f"s{offset}" for offset, _, _ in words)
            lines.append(f"{names}, = unpack_scratch(sp)")
        registers = [name for name in self._live_in if name[0] == "r"]
        if registers:
            lines.append("regs = m.regs")
            lines.extend(f"{name} = regs[{name[1:]}]" for name in registers)
        if "cur_ptr" in self._live_in:
            lines.append("cur_ptr = m.cur_ptr")
        if "flags" in self._live_in:
            lines.append("_eq = m._flag_eq")
            lines.append("_lt = m._flag_lt")
        return ["    " + line for line in lines]

    # -- emission -----------------------------------------------------------
    def _emit(self, line: str) -> None:
        self._lines.append("    " * self._indent + line)

    def _body(self) -> None:
        """Blocks in pc order.  The entry block runs unguarded; a label
        ``L`` opens ``while _n <= L:`` -- entered by a jump that set
        ``_n = L`` or by falling in from the block before (whose own
        label is smaller), left by ``break`` or a terminal's ``return``.
        ``_x`` carries the instructions executed in the blocks already
        left; inside the entry block that count is static."""
        instructions = self.instructions
        blocks = bool(self._labels)
        if blocks:
            self._emit("while True:")
            self._indent += 1
        self._entry = True      # still in the entry block
        self._count = 1         # executed since the block opened (+ LOAD)
        reachable = True
        pc = 1
        while pc < len(instructions):
            if pc in self._labels:
                if reachable:
                    self._leave()
                self._indent -= 1
                self._emit(f"while _n <= {pc}:")
                self._indent += 1
                self._entry, self._count, reachable = False, 0, True
            instr = instructions[pc]
            pc += 1
            if not reachable:
                continue
            if instr.opcode is Opcode.COMPARE and self._fusable(pc):
                self._count += 1
                reachable = self._step(instructions[pc], compare=instr)
                pc += 1
            else:
                reachable = self._step(instr)
        if blocks:
            if reachable:
                self._emit("break")
            self._indent -= 1

    def _fusable(self, jump_pc: int) -> bool:
        """The COMPARE before ``jump_pc`` feeds that JUMP and nothing
        else: no other path joins at the JUMP, flags dead behind it."""
        return (jump_pc < len(self.instructions)
                and self.instructions[jump_pc].opcode in JUMP_OPCODES
                and jump_pc not in self._labels
                and "flags" not in self._live_out[jump_pc])

    def _leave(self, target: Optional[int] = None) -> None:
        """Exit the current block for ``target`` (None: fall into the
        block that follows), accounting the path that got here."""
        if target is not None:
            self._emit(f"_n = {target}")
        elif self._entry:
            self._emit("_n = 0")
        self._emit(f"_x = {self._count}" if self._entry
                   else f"_x += {self._count}")
        self._emit("break")

    def _step(self, instr: Instruction,
              compare: Optional[Instruction] = None) -> bool:
        """Count and emit one instruction (a JUMP together with the
        COMPARE fused into it); False when control cannot run on to the
        next one -- a terminal, or an access statically out of bounds."""
        self._count += 1
        try:
            return self._instruction(instr, compare)
        except _StaticFault as fault:
            self._emit(f"raise ExecutionFault({str(fault)!r})")
            return False

    def _relation(self, compare: Instruction, symbol: str) -> str:
        return f"{self._read(compare.a)} {symbol} {self._read(compare.b)}"

    def _instruction(self, instr: Instruction,
                     compare: Optional[Instruction]) -> bool:
        op = instr.opcode
        if op in _TERMINALS:
            for name in self._written_back:
                if name == "flags":
                    self._emit("m._flag_eq = _eq")
                    self._emit("m._flag_lt = _lt")
                else:
                    self._emit(f"regs[{name[1:]}] = {name}")
            executed = (self._count if self._entry
                        else f"_x + {self._count}")
            self._emit(f"return {op is Opcode.RETURN}, {executed}")
            return False
        if op in JUMP_OPCODES:
            condition = (_FLAG_TEST[op] if compare is None
                         else self._relation(compare, _RELATION[op]))
            self._emit(f"if {condition}:")
            self._indent += 1
            tail = self._tails.get(instr.target)
            if tail is None:
                self._leave(instr.target)
            else:
                count = self._count
                for inlined in tail:
                    if not self._step(inlined):
                        break
                self._count = count
            self._indent -= 1
        elif op is Opcode.COMPARE:
            a, b = self._temporaries(instr)
            self._emit(f"_eq = {a} == {b}")
            self._emit(f"_lt = {a} < {b}")
        elif op is Opcode.MOVE:
            self._write(instr.dst, self._read(instr.a))
        elif op is Opcode.STORE:
            # The substrate check precedes the operand read, exactly as
            # the interpreter orders it.
            self._emit("if store_fn is None:")
            self._emit("    raise ExecutionFault("
                       "'STORE executed on a read-only substrate')")
            width = instr.a.width
            value = _masked(self._read(instr.a), (1 << (8 * width)) - 1)
            self._emit(f"store_fn((cur_ptr + {instr.mem_offset}) & {MASK64},"
                       f" pk{width}({value}))")
        elif op is Opcode.NOT:
            self._write(instr.dst, f"~{self._read(instr.a)}")
        elif op is Opcode.DIV:
            # C-style truncation toward zero, div-by-zero faulting --
            # the interpreter's exact semantics.
            a, b = self._temporaries(instr)
            if instr.b.bank is not Bank.IMM or instr.b.value == 0:
                self._emit(f"if {b} == 0:")
                self._emit("    raise ExecutionFault('division by zero')")
            self._emit(f"_v = abs({a}) // abs({b})")
            self._emit(f"if ({a} < 0) != ({b} < 0):")
            self._emit("    _v = -_v")
            self._write(instr.dst, "_v")
        elif op in ALU_OPCODES:
            self._write(instr.dst, self._relation(instr, _ALU_SYMBOL[op]))
        else:  # pragma: no cover -- LOAD is validated to be first only
            raise ExecutionFault(f"cannot compile opcode {op!r}")
        return True

    def _temporaries(self, instr: Instruction) -> Tuple[str, str]:
        """Both source operands as expressions safe to name twice."""
        names = []
        for temp, operand in (("_a", instr.a), ("_b", instr.b)):
            expr = self._read(operand)
            if not expr.isidentifier() and operand.bank is not Bank.IMM:
                self._emit(f"{temp} = {expr}")
                expr = temp
            names.append(expr)
        return names[0], names[1]

    # -- operands -----------------------------------------------------------
    def _read(self, operand: Operand) -> str:
        """A side-effect-free expression for ``operand``'s value, atomic
        enough to sit beside any operator.  Run-time bounds checks are
        emitted ahead of it, in operand order; a statically out-of-range
        access raises :class:`_StaticFault` with the interpreter's text."""
        bank = operand.bank
        if bank is Bank.IMM:
            return (repr(operand.value) if operand.value >= 0
                    else f"({operand.value!r})")
        if bank is Bank.CUR_PTR:
            return "cur_ptr"
        if bank is Bank.REG:
            name = f"r{operand.value}"
            if operand.signed:
                # Registers hold 64-bit wrapped values; reinterpret as
                # two's complement without a helper call.
                return (f"({name} - {_TWO64} if {name} >= {_SIGN_BIT}"
                        f" else {name})")
            return name
        width = operand.width
        load = f"ld{width}{'s' if operand.signed else 'u'}"
        if bank is Bank.SP_IND:
            name = f"r{operand.value}"
            limit = self.scratch_bytes
            self._emit(f"if {name} + {width} > {limit}:")
            self._emit(f"    raise ExecutionFault('indirect scratch pad "
                       f"read [%d:%d] beyond {limit} B' "
                       f"% ({name}, {name} + {width}))")
            return f"{load}(sp, {name})[0]"
        offset = operand.value
        end = offset + width
        if bank is Bank.DATA:
            if end > self.window_size:
                raise _StaticFault(f"data read [{offset}:{end}] beyond "
                                   f"{self.window_size} B")
            if (offset, width, operand.signed) in self._fields:
                return f"d{offset}"
            return f"{load}(data, {offset})[0]"
        # Bank.SP
        if end > self.scratch_bytes:
            raise _StaticFault(f"scratch pad read [{offset}:{end}] beyond "
                               f"{self.scratch_bytes} B")
        if (offset, width) in self._words:
            return f"s{offset}"
        return f"{load}(sp, {offset})[0]"

    def _write(self, operand: Operand, value: str) -> None:
        """Emit the store of expression ``value`` into ``operand``."""
        bank = operand.bank
        if bank is Bank.CUR_PTR:
            local = "cur_ptr = " if self._reads_cur_ptr else ""
            self._emit(f"m.cur_ptr = {local}{_masked(value, MASK64)}")
            return
        if bank is Bank.REG:
            self._emit(f"r{operand.value} = {_masked(value, MASK64)}")
            return
        width = operand.width
        mask = (1 << (8 * width)) - 1
        limit = self.scratch_bytes
        if bank is Bank.SP:
            offset = operand.value
            end = offset + width
            if end > limit:
                raise _StaticFault(f"scratch pad write [{offset}:{end}] "
                                   f"beyond {limit} B")
            signed = self._words.get((offset, width))
            if signed is None:
                self._emit(f"st{width}u(sp, {offset}, "
                           f"{_masked(value, mask)})")
            elif signed:
                # Wrap to the word's signed range (the value the next
                # read sees) and write through.
                bias = 1 << (8 * width - 1)
                self._emit(f"s{offset} = ((({value}) + {bias}) & {mask})"
                           f" - {bias}")
                self._emit(f"st{width}s(sp, {offset}, s{offset})")
            else:
                self._emit(f"s{offset} = {_masked(value, mask)}")
                self._emit(f"st{width}u(sp, {offset}, s{offset})")
            return
        if bank is Bank.SP_IND:
            name = f"r{operand.value}"
            self._emit(f"if {name} + {width} > {limit}:")
            self._emit(f"    raise ExecutionFault('scratch pad write "
                       f"[%d:%d] beyond {limit} B' "
                       f"% ({name}, {name} + {width}))")
            self._emit(f"st{width}u(sp, {name}, {_masked(value, mask)})")
            return
        if bank is Bank.DATA:
            raise _StaticFault("the data register vector is read-only "
                               "(loaded from memory each iteration)")
        raise _StaticFault(f"cannot write operand bank {bank}")


class CompiledProgram:
    """A program's iteration body lowered to one Python function.

    ``kernel(machine, data, store_fn)`` runs the logic phase of one
    iteration over the LOAD's bytes and returns ``(done,
    instructions_executed)``.  ``source`` keeps the generated Python for
    debugging, the docs and the tests.
    """

    __slots__ = ("name", "window_offset", "window_size", "scratch_bytes",
                 "kernel", "source")

    def __init__(self, program: Program):
        self.name = program.name
        self.window_offset, self.window_size = program.load_window
        self.scratch_bytes = program.scratch_bytes
        lowering = _Lowering(program)
        self.source = lowering.source
        namespace = {**_NAMESPACE, **lowering.codecs}
        exec(compile(self.source, f"<pulse-kernel:{program.name}>", "exec"),
             namespace)
        self.kernel: Callable = namespace["_kernel"]


#: process-wide compile cache, keyed by program content digest
_CACHE: Dict[bytes, CompiledProgram] = {}


def compile_program(program: Program) -> CompiledProgram:
    """The compiled form of ``program``, built at most once per content.

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
