"""The offload engine's static analysis is one backward pass.

``Program.longest_paths`` walks the iteration DAG once, in reverse pc
order; ``analyze`` and ``Program.naive_load_runs`` read it.  These tests
hold it to the path enumeration it replaced
(``tests.helpers.reference_iteration_paths``) on every catalog kernel,
on generated programs and on B+Tree kernels whose path count doubles
with each key slot -- and hold its cost to the program's length.
"""

import hashlib
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

from repro.isa import (
    Instruction,
    Opcode,
    Program,
    analyze,
    data,
    imm,
    reg,
)
from repro.isa.encoding import encode
from repro.mem import GlobalMemory
from repro.params import AcceleratorParams
from repro.structures import BPlusTree
from tests.helpers import reference_iteration_paths, reference_naive_load_runs
from tests.test_compiler_differential import _program_from, build_world

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
PARAMS = AcceleratorParams()


def _fresh(program):
    """A copy of ``program`` with nothing memoized yet."""
    return Program(program.name, program.instructions,
                   scratch_bytes=program.scratch_bytes)


def assert_matches_enumeration(program):
    paths = reference_iteration_paths(program)
    ends = {opcode: [len(path) - 1 for path in paths
                     if program.instructions[path[-1]].opcode is opcode]
            for opcode in (Opcode.NEXT_ITER, Opcode.RETURN)}
    analysis = analyze(program, PARAMS)
    assert analysis.recurring_instructions == max(
        ends[Opcode.NEXT_ITER], default=0), program.describe()
    assert analysis.terminal_instructions == max(
        ends[Opcode.RETURN], default=0), program.describe()
    assert list(program.naive_load_runs()) == reference_naive_load_runs(
        program), program.describe()


def _btree_kernels():
    memory = GlobalMemory(node_count=1, node_capacity=1 << 20)
    for fanout in range(4, 13):
        tree = BPlusTree(memory, fanout=fanout)
        yield f"scan_count-{fanout}", tree.scan_count_iterator(800).program
        yield f"scan_collect-{fanout}", tree.scan_collect_iterator(
            16).program
        yield f"lookup-{fanout}", tree.lookup_iterator().program


CATALOG = [(name, iterator.program)
           for name, iterator, *_ in build_world()[1]]
BTREE = list(_btree_kernels())


@pytest.mark.parametrize("program", [p for _, p in CATALOG],
                         ids=[name for name, _ in CATALOG])
def test_catalog_kernel_matches_enumeration(program):
    assert_matches_enumeration(program)


@pytest.mark.parametrize("program", [p for _, p in BTREE],
                         ids=[name for name, _ in BTREE])
def test_btree_kernel_matches_enumeration(program):
    assert_matches_enumeration(program)


def test_generated_programs_match_enumeration():
    rng = random.Random(37)
    for _ in range(2000):
        assert_matches_enumeration(_program_from(rng.randbytes(160)))


def test_btree_scan_analysis_is_bounded_by_length_not_paths():
    """Fanout 12's scan kernel has 24 598 paths; enumerating them peaked
    at 13.5 MB."""
    program = _fresh(BPlusTree(GlobalMemory(1, 1 << 20), fanout=12)
                     .scan_count_iterator(limit=800).program)
    tracemalloc.start()
    try:
        analyze(program, PARAMS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_two_to_the_48_paths_analyze_to_hand_computed_lengths():
    """48 chained diamonds: COMPARE, a jump over one MOVE, join.  The
    longest path takes every fall-through (3 instructions a diamond),
    then a last branch chooses NEXT_ITER or a MOVE and RETURN."""
    body = []
    for i in range(48):
        pc = 1 + 3 * i
        body += [Instruction(Opcode.COMPARE, a=data(0), b=imm(i)),
                 Instruction(Opcode.JUMP_EQ, target=pc + 3),
                 Instruction(Opcode.MOVE, dst=reg(0), a=data(16))]
    tail = 1 + 3 * 48                               # pc 145
    program = Program("diamonds", [
        Instruction(Opcode.LOAD, mem_size=32), *body,
        Instruction(Opcode.COMPARE, a=data(0), b=imm(-1)),  # 145
        Instruction(Opcode.JUMP_EQ, target=tail + 3),        # 146
        Instruction(Opcode.NEXT_ITER),                       # 147
        Instruction(Opcode.MOVE, dst=reg(1), a=data(24)),    # 148
        Instruction(Opcode.RETURN),                          # 149
    ])
    analysis = analyze(program, PARAMS)
    assert analysis.recurring_instructions == 3 * 48 + 3
    assert analysis.terminal_instructions == 3 * 48 + 4
    assert program.longest_paths() == (
        tuple(range(tail + 3)), tuple(range(tail + 2)) + (148, 149))
    assert program.naive_load_runs() == ((0, 8), (16, 8))


def test_naive_load_runs_is_computed_once_and_immutable():
    program = _fresh(BTREE[0][1])
    runs = program.naive_load_runs()
    assert isinstance(runs, tuple)
    assert program.naive_load_runs() is runs


@pytest.mark.parametrize("program", [p for _, p in CATALOG],
                         ids=[name for name, _ in CATALOG])
def test_digest_is_blake2b_of_the_encoding(program):
    assert _fresh(program).digest() == hashlib.blake2b(
        encode(program), digest_size=16).digest()


def test_a_traversal_does_not_load_openssl():
    child = """
import sys
from repro.core import PulseCluster
from repro.structures import LinkedList
cluster = PulseCluster(node_count=1)
lst = LinkedList(cluster.memory)
lst.extend((k, k * 10) for k in range(1, 9))
assert cluster.run_traversal(lst.find_iterator(), 5).value == 50
print(sorted(m for m in sys.modules if "hashlib" in m))
"""
    done = subprocess.run([sys.executable, "-c", child],
                          env={**os.environ, "PYTHONPATH": SRC},
                          stdout=subprocess.PIPE, text=True, check=True)
    assert done.stdout.strip() == "[]"
