"""The pulse instruction set (Table 1 of the paper).

A deliberately restricted RISC subset: one aggregated LOAD per iteration,
ALU/MOVE/COMPARE+forward-JUMP logic, and the two terminal instructions
NEXT_ITER (backward control flow happens *only* here) and RETURN (yield
the scratch pad).  The restriction is the point: it keeps the accelerator
lightweight and execution time deterministic, which is what lets the
offload engine bound t_c statically (section 4.1).
"""

from repro.isa.instructions import (
    ALU_OPCODES,
    CONDITIONS,
    ExecutionFault,
    Instruction,
    IsaError,
    Opcode,
    Operand,
    cur_ptr,
    imm,
    reg,
    sp,
)
from repro.isa.program import Program
from repro.isa.assembler import assemble, disassemble
from repro.isa.compiler import (
    CompiledProgram,
    compile_program,
    interpreter_forced,
)
from repro.isa.batchmachine import (
    BatchMachine,
    get_batch_plan,
)
from repro.isa.interpreter import IteratorMachine
from repro.isa.analysis import ProgramAnalysis, analyze

__all__ = [
    "ALU_OPCODES",
    "BatchMachine",
    "CONDITIONS",
    "CompiledProgram",
    "ExecutionFault",
    "Instruction",
    "IsaError",
    "IteratorMachine",
    "Opcode",
    "Operand",
    "Program",
    "ProgramAnalysis",
    "analyze",
    "assemble",
    "compile_program",
    "cur_ptr",
    "disassemble",
    "get_batch_plan",
    "imm",
    "interpreter_forced",
    "reg",
    "sp",
]
