"""Differential tests: the compiled tier against the interpreter oracle.

The threaded-code compiler (``repro.isa.compiler``) must be
*observationally identical* to the reference interpreter: same scratch
pad bytes, same iteration/instruction counts, same final ``cur_ptr``,
and -- on malformed programs or inputs -- the same fault type with the
same message.  Every kernel the structure library ships is executed in
both modes over byte-identical memory images; write kernels run against
two independently-built (but deterministic, hence identical) worlds so
each mode observes its own STOREs only.
"""

import hashlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.isa import (
    ExecutionFault,
    Instruction,
    IteratorMachine,
    Opcode,
    Operand,
    Program,
    assemble,
    compile_program,
    disassemble,
)
from repro.isa import compiler
from repro.isa.compiler import interpreter_forced
from repro.isa.instructions import ALU_OPCODES, JUMP_OPCODES, MASK64, Bank
from repro.mem import GlobalMemory
from repro.mem.translation import ProtectionFault, TranslationFault
from repro.structures import (
    AvlTree,
    BPlusTree,
    BinarySearchTree,
    DisaggregatedGraph,
    HashTable,
    LinkedList,
    SkipList,
)


def read_and_step(machine, read_fn, write_fn=None):
    """One iteration as every host runs it: read the window, then step."""
    offset, size = machine.program.load_window
    return machine.step(read_fn((machine.cur_ptr + offset) & MASK64, size),
                        write_fn)


def execute(program, cur_ptr, scratch, read_fn, write_fn=None,
            compiled=False, max_iterations=4096):
    """Run a traversal to completion; capture all observable state."""
    machine = IteratorMachine(program, compiled=compiled)
    assert machine.compiled is compiled
    machine.reset(cur_ptr, scratch)
    fault = None
    steps = 0
    instructions = 0
    while True:
        try:
            done, executed = read_and_step(machine, read_fn, write_fn)
        except ExecutionFault as exc:
            fault = (type(exc).__name__, str(exc))
            break
        steps += 1
        instructions += executed
        if done:
            break
        if steps >= max_iterations:
            fault = ("Budget", "iteration cap")
            break
    return {
        "scratch": bytes(machine.scratch),
        "cur_ptr": machine.cur_ptr,
        "iterations": machine.iterations,
        "instructions": instructions,
        "fault": fault,
    }


def build_world():
    """One deterministic rack image + every catalog kernel over it.

    Returns ``(memory, cases)`` where each case is
    ``(name, program, init_args_fn, writes)``.  Building twice yields
    byte-identical memories (allocation order and skip-list seeding are
    deterministic), which is what lets write kernels run differentially.
    """
    memory = GlobalMemory(node_count=2, node_capacity=8 << 20)

    lst = LinkedList(memory, value_bytes=240)
    lst.extend((k, k * 7 - 3) for k in range(1, 41))

    table = HashTable(memory, buckets=4, value_bytes=8)
    for key in range(48):
        table.insert(key, (key * 11 + 1).to_bytes(8, "little"))

    tree = BPlusTree(memory, fanout=8)
    tree.bulk_load([(k * 2, k * 2 + 1) for k in range(200)])

    bst = BinarySearchTree(memory)
    for k in (50, 25, 75, 12, 37, 63, 88, 6, 18, 31, 44, 57, 70, 81, 94):
        bst.insert(k, k + 1000)

    avl = AvlTree(memory)
    for k in range(1, 64):
        avl.insert(k, k * 3)

    skip = SkipList(memory, seed=7)
    for k in range(1, 80, 2):
        skip.insert(k, k * 5)

    graph = DisaggregatedGraph(memory)
    count = 31  # complete binary tree, depth 5
    for vertex in range(count):
        graph.add_vertex(vertex, vertex)
    for vertex in range(count):
        for child in (2 * vertex + 1, 2 * vertex + 2):
            if child < count:
                graph.add_edge(vertex, child)

    cases = [
        ("list_find_hit", lst.find_iterator(), (20,), False),
        ("list_find_miss", lst.find_iterator(), (999,), False),
        ("list_walk", lst.walk_iterator(), (15,), False),
        ("list_sum", lst.sum_iterator(), (), False),
        ("hash_find_hit", table.find_iterator(), (17,), False),
        ("hash_find_miss", table.find_iterator(), (1000,), False),
        ("hash_update", table.update_iterator(), (5, 999), True),
        ("btree_lookup_hit", tree.lookup_iterator(), (100,), False),
        ("btree_lookup_miss", tree.lookup_iterator(), (101,), False),
        ("btree_scan_collect",
         tree.scan_collect_iterator(limit=16), (40,), False),
        ("btree_scan_count",
         tree.scan_count_iterator(limit=16), (40,), False),
        ("btree_agg_sum", tree.aggregate_iterator("sum"),
         (50, 150), False),
        ("btree_agg_avg", tree.aggregate_iterator("avg"),
         (50, 150), False),
        ("btree_agg_min", tree.aggregate_iterator("min"),
         (50, 150), False),
        ("btree_agg_max", tree.aggregate_iterator("max"),
         (50, 150), False),
        ("bst_find", bst.find_iterator(), (37,), False),
        ("bst_lower_bound", bst.lower_bound_iterator(), (40,), False),
        ("avl_find", avl.find_iterator(), (45,), False),
        ("skip_find", skip.find_iterator(), (53,), False),
        ("graph_bfs",
         graph.bfs_iterator(queue_capacity=64, max_visits=256),
         (0,), False),
    ]
    return memory, cases


CASE_NAMES = [name for name, *_ in build_world()[1]]


@pytest.mark.parametrize("index", range(len(CASE_NAMES)), ids=CASE_NAMES)
def test_catalog_kernel_differential(index):
    mem_i, cases_i = build_world()
    mem_c, cases_c = build_world()
    name_i, it_i, args, writes = cases_i[index]
    name_c, it_c, _, _ = cases_c[index]
    assert name_i == name_c

    cur_i, scratch_i = it_i.init(*args)
    cur_c, scratch_c = it_c.init(*args)
    assert cur_i == cur_c, "worlds are not deterministic"
    assert bytes(scratch_i) == bytes(scratch_c)

    interp = execute(it_i.program, cur_i, scratch_i, mem_i.read,
                     mem_i.write if writes else None, compiled=False)
    comp = execute(it_c.program, cur_c, scratch_c, mem_c.read,
                   mem_c.write if writes else None, compiled=True)
    assert interp == comp, name_i

    # Decoded results agree too (and with the structure's reference).
    if interp["fault"] is None:
        assert it_i.finalize(interp["scratch"]) == \
               it_c.finalize(comp["scratch"])


def test_hash_update_store_lands_identically():
    """After the write kernel runs, both memory images still agree."""
    mem_i, cases_i = build_world()
    mem_c, cases_c = build_world()
    idx = CASE_NAMES.index("hash_update")
    _, it_i, args, _ = cases_i[idx]
    _, it_c, _, _ = cases_c[idx]
    cur, scratch = it_i.init(*args)
    execute(it_i.program, cur, scratch, mem_i.read, mem_i.write,
            compiled=False)
    cur, scratch = it_c.init(*args)
    execute(it_c.program, cur, scratch, mem_c.read, mem_c.write,
            compiled=True)
    # The updated value is readable and identical through both images.
    table_i = cases_i[idx][1]
    table_c = cases_c[idx][1]
    assert table_i.finalize is not None and table_c.finalize is not None
    addr = cur  # bucket head; compare the whole chain's first window
    assert mem_i.read(addr, 256) == mem_c.read(addr, 256)


# -- fault parity -------------------------------------------------------------

def _image(node_bytes=64):
    gm = GlobalMemory(node_count=1, node_capacity=1 << 20)
    addr = gm.alloc(node_bytes)
    for off in range(0, node_bytes, 8):
        gm.write_u64(addr + off, off)
    return gm, addr


def _both(asm, cur_ptr, scratch, read_fn, write_fn=None):
    program = assemble(asm)
    return (execute(program, cur_ptr, scratch, read_fn, write_fn,
                    compiled=False),
            execute(program, cur_ptr, scratch, read_fn, write_fn,
                    compiled=True))


def test_division_by_zero_parity():
    gm, addr = _image()
    interp, comp = _both(
        "LOAD 0 16\nDIV sp[0] #1 #0\nRETURN", addr, b"", gm.read)
    assert interp == comp
    assert interp["fault"] == ("ExecutionFault", "division by zero")


def test_indirect_scratch_oob_parity():
    gm, addr = _image()
    asm = ("LOAD 0 16\n"
           "MOVE r0 #4090\n"          # 4090 + 8 > 4096-byte pad
           "MOVE sp[0] sp[r0]\n"
           "RETURN")
    interp, comp = _both(asm, addr, b"", gm.read)
    assert interp == comp
    assert interp["fault"][0] == "ExecutionFault"
    assert "beyond" in interp["fault"][1]
    assert interp["fault"][1].startswith("indirect scratch pad read")


def test_indirect_scratch_write_oob_parity():
    gm, addr = _image()
    asm = ("LOAD 0 16\n"
           "MOVE r0 #4095\n"
           "MOVE sp[r0] #1\n"
           "RETURN")
    interp, comp = _both(asm, addr, b"", gm.read)
    assert interp == comp
    assert interp["fault"][0] == "ExecutionFault"
    assert interp["fault"][1].startswith("scratch pad write")


def test_short_read_parity():
    def stingy_read(vaddr, size):
        return b"\x01" * (size // 2)

    interp, comp = _both("LOAD 0 16\nRETURN", 0x1000, b"", stingy_read)
    assert interp == comp
    assert interp["fault"] == \
        ("ExecutionFault", "short read: wanted 16 B, got 8 B")


def test_store_on_read_only_substrate_parity():
    gm, addr = _image()
    asm = "LOAD 0 16\nSTORE 8 sp[0]\nRETURN"
    interp, comp = _both(asm, addr, b"\x2a" + b"\x00" * 7, gm.read,
                         write_fn=None)
    assert interp == comp
    assert interp["fault"] == \
        ("ExecutionFault", "STORE executed on a read-only substrate")


# -- compile tier plumbing ----------------------------------------------------

def test_compile_cache_is_digest_keyed():
    compiler._CACHE.clear()
    program = assemble("LOAD 0 16\nMOVE sp[0] data[0]\nRETURN")
    same = assemble("LOAD 0 16\nMOVE sp[0] data[0]\nRETURN")
    other = assemble("LOAD 0 16\nMOVE sp[8] data[0]\nRETURN")
    first = compile_program(program)
    assert compile_program(same) is first          # shared by content
    assert compile_program(other) is not first
    assert len(compiler._CACHE) == 2
    compiler._CACHE.clear()
    assert not compiler._CACHE


def test_pulse_interp_env_forces_interpreter(monkeypatch):
    program = assemble("LOAD 0 8\nRETURN")
    monkeypatch.setenv("PULSE_INTERP", "1")
    assert interpreter_forced()
    assert not IteratorMachine(program).compiled
    monkeypatch.setenv("PULSE_INTERP", "0")
    assert not interpreter_forced()
    assert IteratorMachine(program).compiled
    monkeypatch.delenv("PULSE_INTERP")
    assert IteratorMachine(program).compiled
    # Explicit constructor choice overrides the environment either way.
    monkeypatch.setenv("PULSE_INTERP", "1")
    assert IteratorMachine(program, compiled=True).compiled


def test_reset_preserves_scratch_when_asked():
    """scratch=None must keep pad contents (continuation resume)."""
    program = assemble("LOAD 0 8\nADD sp[0] sp[0] #1\nNEXT_ITER")
    gm, addr = _image()
    for compiled in (False, True):
        machine = IteratorMachine(program, compiled=compiled)
        machine.reset(addr, (5).to_bytes(8, "little"))
        read_and_step(machine, gm.read)
        machine.reset(addr, scratch=None)     # resume: keep the pad
        read_and_step(machine, gm.read)
        assert int.from_bytes(bytes(machine.scratch[:8]), "little") == 7
        machine.reset(addr, b"")              # fresh request: zeroed
        assert bytes(machine.scratch) == bytes(len(machine.scratch))


# -- generated programs -------------------------------------------------------
#
# The catalog kernels never jump before their first COMPARE, carry a
# register across iterations, read one scratch word at two widths or alias
# a directly addressed word through sp[rN] -- the cases state-in-locals and
# word promotion can get wrong.  Draw them.

GEN_WINDOW = 32
GEN_PAD = 24
GEN_ITERATIONS = 4
GENERATED = settings(max_examples=1000, derandomize=True, deadline=None,
                     database=None, suppress_health_check=list(HealthCheck))

# Small operand universes, so that accesses collide: the same scratch word
# read at several sites (promotion), at two shapes (aliasing), through
# sp[rN] with rN a small constant, and one word past the pad's end.
_IMMEDIATES = (0, 1, 8, 16, -1, 2, 23, 255, -256, 1 << 40,
               (1 << 63) - 1, -(1 << 63))
_DATA_FIELDS = ((0, 8, True), (8, 8, True), (16, 8, False), (4, 4, False),
                (0, 4, True), (6, 4, True), (24, 1, False), (25, 2, True),
                (24, 8, True))
_PAD_WORDS = ((0, 8, True), (8, 8, True), (16, 8, True), (0, 8, False),
              (8, 8, True), (16, 8, True), (8, 8, False), (0, 4, True),
              (12, 8, True), (23, 1, False), (20, 8, True))
_SOURCE_BANKS = (Bank.IMM, Bank.IMM, Bank.CUR_PTR, Bank.REG, Bank.REG,
                 Bank.DATA, Bank.DATA, Bank.SP, Bank.SP, Bank.SP,
                 Bank.SP_IND)
_DESTINATION_BANKS = (Bank.SP, Bank.SP, Bank.SP, Bank.REG, Bank.REG,
                      Bank.CUR_PTR, Bank.SP_IND)
_KINDS = ("alu", "alu", "move", "move", "compare", "compare", "jump",
          "jump", "jump", "index", "store", "terminal")
_ALU = sorted(ALU_OPCODES, key=lambda op: op.value)
_JUMPS = sorted(JUMP_OPCODES, key=lambda op: op.value)
_TERMINALS = (Opcode.NEXT_ITER, Opcode.NEXT_ITER, Opcode.RETURN)


def _program_from(genome: bytes) -> Program:
    """Decode a byte string into a valid forward-jump program: each
    decision indexes a table with the next byte (so an all-zero genome is
    the simplest program, and shrinking heads there)."""
    genes = iter(genome)

    def pick(options):
        return options[next(genes, 0) % len(options)]

    # "all" uses every addressing form and shape; "direct" never goes
    # through sp[rN]; "aligned" also keeps to whole aligned words, whose
    # scratch words can then live in locals; "indirect" is "aligned" plus
    # sp[rN], which must stop them from doing so.
    profile = pick(("all", "direct", "aligned", "indirect"))
    words = _PAD_WORDS if profile in ("all", "direct") else _PAD_WORDS[:7]

    def operand(banks):
        bank = pick(banks)
        if bank is Bank.SP_IND and profile in ("direct", "aligned"):
            bank = Bank.SP
        if bank is Bank.IMM:
            return Operand(bank, pick(_IMMEDIATES), 8, True)
        if bank is Bank.CUR_PTR:
            return Operand(bank, 0, 8, False)
        if bank in (Bank.REG, Bank.SP_IND):
            return Operand(bank, pick((0, 1)), pick((8, 8, 4, 1)),
                           pick((True, False)))
        return Operand(bank, *pick(_DATA_FIELDS if bank is Bank.DATA
                                   else words))

    length = 3 + next(genes, 0) % 18
    kinds = [None] + [pick(_KINDS) for _ in range(1, length - 1)]
    instructions = [Instruction(Opcode.LOAD, mem_offset=0,
                                mem_size=GEN_WINDOW)]
    for pc in range(1, length - 1):
        kind = kinds[pc]
        if kind == "alu":
            op = pick(_ALU)
            instructions.append(Instruction(
                op, dst=operand(_DESTINATION_BANKS), a=operand(_SOURCE_BANKS),
                b=None if op is Opcode.NOT else operand(_SOURCE_BANKS)))
        elif kind == "move":
            instructions.append(Instruction(
                Opcode.MOVE, dst=operand(_DESTINATION_BANKS),
                a=operand(_SOURCE_BANKS)))
        elif kind == "index":   # a register that points into the pad
            instructions.append(Instruction(
                Opcode.MOVE, dst=Operand(Bank.REG, pick((0, 1))),
                a=Operand(Bank.IMM, pick((0, 8, 16, 12, 17)), 8, True)))
        elif kind == "compare":
            instructions.append(Instruction(
                Opcode.COMPARE, a=operand(_SOURCE_BANKS),
                b=operand(_SOURCE_BANKS)))
        elif kind == "jump":
            # Anywhere ahead, but landing on another JUMP (a join whose
            # flags come from two places) twice as often.
            ahead = list(range(pc + 1, length))
            ahead += [t for t in ahead[:-1] if kinds[t] == "jump"]
            instructions.append(Instruction(pick(_JUMPS),
                                            target=pick(ahead)))
        elif kind == "store":
            instructions.append(Instruction(
                Opcode.STORE, a=operand(_SOURCE_BANKS),
                mem_offset=pick((0, 8, 64))))
        else:
            instructions.append(Instruction(pick(_TERMINALS)))
    instructions.append(Instruction(pick(_TERMINALS)))
    return Program("generated", instructions, scratch_bytes=GEN_PAD)


generated_programs = st.binary(min_size=160, max_size=160).map(_program_from)


def _window(vaddr, size):
    """Deterministic bytes at any address, so every cur_ptr loads."""
    return hashlib.blake2b(vaddr.to_bytes(8, "little"),
                           digest_size=size).digest()


def trace_tier(program, cur_ptr, scratch, store_fault, compiled):
    """Observable state after every iteration, and at the fault.

    ``store_fault`` is ``(call number, exception class)``: the write
    substrate raises on that STORE, as a read-only range would.
    """
    machine = IteratorMachine(program, compiled=compiled)
    machine.reset(cur_ptr, scratch)
    stores = []

    def write_fn(vaddr, data):
        if len(stores) == store_fault[0]:
            raise (ProtectionFault(vaddr, 2, 1)
                   if store_fault[1] is ProtectionFault
                   else TranslationFault(vaddr))
        stores.append((vaddr, bytes(data)))

    def state():
        return (bytes(machine.scratch), machine.cur_ptr, machine.iterations,
                tuple(stores))

    trace = []
    for _ in range(GEN_ITERATIONS):
        try:
            done, executed = read_and_step(machine, _window, write_fn)
        except (ExecutionFault, ProtectionFault, TranslationFault) as exc:
            trace.append((type(exc).__name__, str(exc), state()))
            break
        trace.append((done, executed, state()))
    return trace


def test_generated_program_differential():
    """Both tiers agree on every drawn program -- and the draw covers the
    cases it exists for (the differential is only as good as its
    programs)."""
    seen = dict.fromkeys(
        ("jump_before_compare", "register_live_across_iterations",
         "two_widths_one_word", "indirect_and_direct_scratch",
         "promoted_word", "jump_onto_jump", "div_by_data", "store_fault",
         "static_fault", "execution_fault", "many_iterations"), False)

    @GENERATED
    @given(generated_programs,
           st.integers(0, (1 << 64) - 1),
           st.binary(min_size=GEN_PAD, max_size=GEN_PAD),
           st.tuples(st.integers(0, 3),
                     st.sampled_from((ProtectionFault, TranslationFault))))
    def check(program, cur_ptr, scratch, store_fault):
        interp = trace_tier(program, cur_ptr, scratch, store_fault, False)
        comp = trace_tier(program, cur_ptr, scratch, store_fault, True)
        source = compile_program(program).source
        assert interp == comp, (disassemble(program), source)

        body = program.instructions[1:]
        ops = [instr.opcode for instr in body]
        first_compare = (ops.index(Opcode.COMPARE)
                         if Opcode.COMPARE in ops else len(ops))
        seen["jump_before_compare"] |= any(
            op in JUMP_OPCODES for op in ops[:first_compare])
        seen["register_live_across_iterations"] |= " = regs[" in source
        direct = {(o.value, o.width) for instr in body
                  for o in (instr.dst, instr.a, instr.b)
                  if o is not None and o.bank is Bank.SP}
        seen["two_widths_one_word"] |= any(
            a != b and a[0] < b[0] + b[1] and b[0] < a[0] + a[1]
            for a in direct for b in direct)
        seen["indirect_and_direct_scratch"] |= bool(direct) and any(
            instr.dst is not None and instr.dst.bank is Bank.SP_IND
            for instr in body)
        seen["promoted_word"] |= "unpack_scratch" in source
        seen["jump_onto_jump"] |= any(
            instr.opcode in JUMP_OPCODES
            and program.instructions[instr.target].opcode in JUMP_OPCODES
            for instr in body)
        seen["div_by_data"] |= any(
            instr.opcode is Opcode.DIV and instr.b.bank is Bank.DATA
            for instr in body)
        seen["static_fault"] |= f"beyond {GEN_PAD} B')" in source
        fault = comp[-1][0] if isinstance(comp[-1][0], str) else None
        seen["store_fault"] |= fault in ("ProtectionFault",
                                         "TranslationFault")
        seen["execution_fault"] |= fault == "ExecutionFault"
        seen["many_iterations"] |= len(comp) == GEN_ITERATIONS

    check()
    assert all(seen.values()), seen
