"""Reusable iterator-machine workspaces (the accelerator's frame pool).

The hardware does not fabricate a workspace per request -- each core owns
a fixed set of them and the scheduler hands requests to whichever is
free (section 4.2.3).  The simulator used to re-allocate a fresh
:class:`~repro.isa.interpreter.IteratorMachine` (scratch pad, register
file, compiled frame) for every request; at millions of requests that
allocation churn, not the modeled hardware, dominated wall clock.

:class:`MachinePool` is a free list of machines keyed by program content
digest.  ``acquire`` hands out an idle machine for the program (building
one only on first sight or when all frames for that kernel are in
flight), ``release`` returns it.  The caller still ``reset``s the
machine -- zero-filling the scratch pad in place -- so no state leaks
between requests.  The pool is bounded: beyond ``capacity`` retained
machines, released frames are simply dropped for the garbage collector,
which keeps a long-lived accelerator from hoarding one machine per
kernel it has ever seen.

Optional ``reused``/``allocated`` counters (any object with ``inc()``,
usually registry counters) expose the pool's effectiveness as
``<prefix>.workspace.reused`` / ``.allocated``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.isa.interpreter import IteratorMachine
from repro.isa.program import Program


class MachinePool:
    """Bounded free list of IteratorMachine frames, keyed by digest."""

    def __init__(self, capacity: int = 32,
                 reused=None, allocated=None):
        if capacity < 0:
            raise ValueError("pool capacity must be non-negative")
        self.capacity = capacity
        self._free: Dict[bytes, List[IteratorMachine]] = {}
        self._retained = 0
        self._reused = reused
        self._allocated = allocated

    def __len__(self) -> int:
        """Machines currently idle in the pool."""
        return self._retained

    def acquire(self, program: Program) -> IteratorMachine:
        """An idle machine for ``program`` (reused when one is free).

        The machine comes back in whatever state its last request left
        it; callers must ``reset()`` before executing.
        """
        stack = self._free.get(program.digest())
        if stack:
            self._retained -= 1
            if self._reused is not None:
                self._reused.inc()
            return stack.pop()
        if self._allocated is not None:
            self._allocated.inc()
        return IteratorMachine(program)

    def release(self, machine: IteratorMachine) -> None:
        """Return a machine for reuse (dropped once the pool is full)."""
        if self._retained >= self.capacity:
            return
        digest = machine.program.digest()
        self._free.setdefault(digest, []).append(machine)
        self._retained += 1
