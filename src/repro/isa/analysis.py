"""Static analysis used by the offload engine (section 4.1).

Because the ISA forbids backward jumps inside an iteration, the control-
flow graph of an iteration body is a DAG and every quantity the offload
engine needs is computable exactly, in one backward pass over the
instructions (:meth:`Program.longest_paths`):

* ``recurring_instructions`` -- the longest instruction path that ends in
  NEXT_ITER.  This is the per-iteration compute cost N; the engine
  computes t_c = t_i * N against the accelerator's known per-instruction
  time t_i.
* ``eta`` = t_c / t_d, the compute-to-memory ratio that both drives the
  offload decision (offload iff t_c <= eta_max * t_d) and sizes the
  accelerator core (eta logic pipelines, 2*eta workspaces; section 4.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.program import Program
from repro.params import AcceleratorParams


@dataclass(frozen=True)
class ProgramAnalysis:
    """Everything the offload engine derives from a program statically."""

    load_bytes: int
    #: worst-case instructions on a path ending in NEXT_ITER (0 if the
    #: program always returns on the first iteration)
    recurring_instructions: int
    #: accelerator compute time per iteration, ns
    t_c_ns: float
    #: accelerator memory time per iteration, ns
    t_d_ns: float
    #: t_c / t_d
    eta: float
    #: whether the engine will ship this program to the accelerator
    offloadable: bool


def analyze(program: Program,
            params: AcceleratorParams) -> ProgramAnalysis:
    """Analyze ``program`` against a specific accelerator's timings."""
    _, load_bytes = program.load_window

    recurring_path, _ = program.longest_paths()
    # Path length excludes the LOAD (charged to the memory pipeline).
    recurring = max(len(recurring_path) - 1, 0)

    t_d = params.memory_access_ns(load_bytes)
    t_c = params.instruction_ns * recurring
    eta = t_c / t_d if t_d > 0 else float("inf")

    # The LOAD window, the compute-to-memory ratio and the scratch pad
    # must each fit the accelerator.
    offloadable = (load_bytes <= params.max_load_bytes
                   and t_c <= params.eta_max * t_d
                   and program.scratch_bytes <= params.scratchpad_bytes)

    return ProgramAnalysis(
        load_bytes=load_bytes,
        recurring_instructions=recurring,
        t_c_ns=t_c,
        t_d_ns=t_d,
        eta=eta,
        offloadable=offloadable,
    )
