"""Lane groups outside the accelerator: N frames of one kernel in lockstep.

The accelerator steps a doorbell batch as a *lane group*: up to
``batch_lanes`` workspace frames of one kernel sharing a gathered LOAD
per step (``Accelerator._serve_group``).  :class:`BatchMachine` is that
loop with the memory side handed in by the caller, for the differential
tests and the perfbench probe.  A lane is an ordinary ``IteratorMachine``
(compiled, or the oracle under ``PULSE_INTERP=1``), so a faulting lane
reports the fault a request on its own would; its neighbours run on.
"""

from __future__ import annotations

from typing import Sequence

from repro.isa.compiler import compile_program
from repro.isa.instructions import ExecutionFault, wrap64
from repro.isa.interpreter import IteratorMachine

__all__ = ["BatchMachine", "get_batch_plan"]

#: a group's plan is its kernel's compiled form (the shared LOAD window)
get_batch_plan = compile_program


class BatchMachine:
    """``lanes`` frames of one kernel, stepped together by the caller:
    :meth:`load_addresses`, fetch the rows, :meth:`run_logic`."""

    def __init__(self, program, plan, lanes: int):
        self.plan = plan
        self.frames = [IteratorMachine(program) for _ in range(lanes)]
        self.faults = {}  # lane -> message of the fault that retired it

    def seed(self, lane: int, cur_ptr: int, scratch: bytes) -> None:
        self.frames[lane].reset(cur_ptr, scratch)

    def load_addresses(self, lanes: Sequence[int]):
        """Per-lane virtual LOAD address, as a uint64 ndarray."""
        import numpy  # callers index byte images with the result
        offset = self.plan.window_offset
        return numpy.array([wrap64(self.frames[lane].cur_ptr + offset)
                            for lane in lanes], dtype=numpy.uint64)

    def run_logic(self, lanes: Sequence[int], rows):
        """One iteration per lane over its row of record bytes (any
        buffer); returns the lanes that ``(returned, continue, faulted)``."""
        done, cont, faulted = [], [], []
        for lane, row in zip(map(int, lanes), rows):
            frame = self.frames[lane]
            try:
                returned, _executed = frame.step_fn(frame, row, None)
            except ExecutionFault as exc:
                self.faults[lane] = str(exc)
                faulted.append(lane)
                continue
            (done if returned else cont).append(lane)
        return done, cont, faulted
