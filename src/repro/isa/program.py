"""Program container: a validated sequence of pulse instructions.

A program is the offloaded body of an iterator -- the compiled ``next()``
and ``end()`` logic.  Structural invariants enforced here (all from
section 4.1 of the paper):

* exactly one LOAD, and it is the first instruction (the offload engine's
  aggregated per-iteration load);
* the LOAD window is at most ``max_load_bytes`` (256 B);
* jumps are forward-only; backward control flow exists only through
  NEXT_ITER;
* every control path ends in NEXT_ITER or RETURN (no falling off the end);
* STOREs stay within the LOAD window's node (they use cur_ptr-relative
  addressing like LOAD).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.isa.instructions import (
    JUMP_OPCODES,
    Instruction,
    IsaError,
    Opcode,
)

DEFAULT_MAX_LOAD_BYTES = 256


class Program:
    """An immutable, validated pulse program."""

    def __init__(self, name: str, instructions: Iterable[Instruction],
                 scratch_bytes: int = 64,
                 max_load_bytes: int = DEFAULT_MAX_LOAD_BYTES):
        self.name = name
        self.instructions: List[Instruction] = list(instructions)
        self.scratch_bytes = scratch_bytes
        if not self.instructions:
            raise IsaError(f"program {name!r} is empty")
        if scratch_bytes < 0:
            raise IsaError("scratch_bytes must be non-negative")
        self._validate(max_load_bytes)
        #: a STORE mutates memory mid-iteration, so the accelerator never
        #: steps such a kernel in a lane group with neighbours
        self.has_store = any(instr.opcode is Opcode.STORE
                             for instr in self.instructions)
        self._wire_bytes: Optional[int] = None
        self._digest: Optional[bytes] = None

    def __len__(self) -> int:
        return len(self.instructions)

    @property
    def load_window(self) -> Tuple[int, int]:
        """(offset, size) of the aggregated per-iteration LOAD."""
        head = self.instructions[0]
        return head.mem_offset, head.mem_size

    @property
    def body(self) -> List[Instruction]:
        """Logic-pipeline instructions (everything after the LOAD)."""
        return self.instructions[1:]

    def wire_bytes(self) -> int:
        """Encoded size of the program when shipped in a request.

        Computed by actually encoding once (memoized) -- header + name +
        8 B per instruction + the immediate constant pool; see
        :mod:`repro.isa.encoding`.
        """
        if self._wire_bytes is None:
            from repro.isa.encoding import encode
            self._wire_bytes = len(encode(self))
        return self._wire_bytes

    def digest(self) -> bytes:
        """16-byte content digest of the encoded program (memoized).

        Two separately-constructed programs with the same opcodes,
        operands, and constant pool share a digest, so the offload
        engine's deploy-once cache is keyed by *content*, not object
        identity.  The digest doubles as the wire handle
        (:attr:`~repro.core.messages.TraversalRequest.CODE_HANDLE_BYTES`
        is exactly this size).
        """
        if self._digest is None:
            import hashlib

            from repro.isa.encoding import encode
            self._digest = hashlib.blake2b(
                encode(self), digest_size=16).digest()
        return self._digest

    def describe(self) -> str:
        lines = [f"; program {self.name} (scratch={self.scratch_bytes}B)"]
        for i, instr in enumerate(self.instructions):
            lines.append(f"{i:3d}: {instr.describe()}")
        return "\n".join(lines)

    def _validate(self, max_load_bytes: int) -> None:
        instructions = self.instructions
        if instructions[0].opcode is not Opcode.LOAD:
            raise IsaError(
                f"program {self.name!r}: first instruction must be the "
                "aggregated LOAD")
        _, load_size = self.load_window
        if load_size > max_load_bytes:
            raise IsaError(
                f"program {self.name!r}: LOAD window {load_size} B exceeds "
                f"the {max_load_bytes} B accelerator limit")
        for i, instr in enumerate(instructions):
            instr.validate(i, len(instructions))
            if i > 0 and instr.opcode is Opcode.LOAD:
                raise IsaError(
                    f"program {self.name!r}: extra LOAD at {i}; the offload "
                    "engine aggregates all loads into one (section 4.1)")
            if instr.opcode is Opcode.STORE:
                if not 0 <= instr.mem_offset < max_load_bytes:
                    raise IsaError(
                        f"program {self.name!r}: STORE offset "
                        f"{instr.mem_offset} outside the record window")
        self._check_termination()
        # DATA reads must stay inside the load window.
        offset, size = self.load_window
        for i, instr in enumerate(instructions[1:], start=1):
            for operand in (instr.dst, instr.a, instr.b):
                if operand is None:
                    continue
                if operand.bank.value == "data":
                    end = operand.value + operand.width
                    if end > size:
                        raise IsaError(
                            f"program {self.name!r}: [{i}] reads data"
                            f"[{operand.value}:{end}] beyond the "
                            f"{size}-byte LOAD window")

    def _check_termination(self) -> None:
        """Every path must reach NEXT_ITER or RETURN.

        With forward-only jumps the CFG is a DAG in instruction order, so
        a linear scan suffices: an instruction falls through to ``i+1``
        unless it is a terminal, and may also jump to ``target``.
        """
        n = len(self.instructions)
        for i, instr in enumerate(self.instructions):
            terminal = instr.opcode in (Opcode.RETURN, Opcode.NEXT_ITER)
            if i == n - 1 and not terminal:
                raise IsaError(
                    f"program {self.name!r}: falls off the end at {i} "
                    f"({instr.opcode.value}); last instruction on every "
                    "path must be RETURN or NEXT_ITER")

    def naive_load_runs(self) -> List[Tuple[int, int]]:
        """(offset, size) loads a non-aggregating compiler would issue.

        Models the naive translation section 4.1 warns about: the data
        accesses on the *recurring* path (the per-iteration cost), with
        contiguous/overlapping references coalesced into runs -- even a
        naive compiler merges adjacent reads, but it cannot merge across
        gaps like key@0 vs next@248 in a 256 B record.
        """
        recurring_path: List[int] = []
        for path in self.iteration_paths():
            last = self.instructions[path[-1]]
            if (last.opcode is Opcode.NEXT_ITER
                    and len(path) > len(recurring_path)):
                recurring_path = path
        if not recurring_path:
            recurring_path = max(self.iteration_paths(), key=len)

        intervals: List[Tuple[int, int]] = []
        for index in recurring_path:
            instr = self.instructions[index]
            for operand in (instr.dst, instr.a, instr.b):
                if operand is not None and operand.bank.value == "data":
                    intervals.append((operand.value,
                                      operand.value + operand.width))
        if not intervals:
            return [self.load_window]
        intervals.sort()
        runs: List[Tuple[int, int]] = []
        start, end = intervals[0]
        for lo, hi in intervals[1:]:
            if lo <= end:
                end = max(end, hi)
            else:
                runs.append((start, end - start))
                start, end = lo, hi
        runs.append((start, end - start))
        return runs

    def iteration_paths(self) -> List[List[int]]:
        """All control paths from entry to a terminal, as index lists.

        Used by the static analyzer to bound per-iteration compute time.
        Forward-only jumps guarantee this enumeration terminates; path
        count is small for realistic kernels.
        """
        paths: List[List[int]] = []
        stack: List[Tuple[int, List[int]]] = [(0, [])]
        while stack:
            index, path = stack.pop()
            instr = self.instructions[index]
            path = path + [index]
            if instr.opcode in (Opcode.RETURN, Opcode.NEXT_ITER):
                paths.append(path)
                continue
            if instr.opcode in JUMP_OPCODES:
                stack.append((instr.target, path))
            if index + 1 < len(self.instructions):
                stack.append((index + 1, path))
        return paths
