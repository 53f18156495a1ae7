"""Differential tests: lane groups against the oracles.

Two layers, mirroring ``test_compiler_differential.py``:

* **Unit**: :class:`~repro.isa.batchmachine.BatchMachine` stepping many
  lanes of one kernel over a flat byte image must produce, per lane,
  exactly the interpreter's ``cur_ptr``/scratch/iteration state; a lane
  that faults (div-by-zero, indirect out-of-bounds) reports the
  interpreter's exact message while its neighbours retire bit-exact.
* **End to end**: one doorbell burst mixing chains, a B+Tree, and a
  skip list at mixed depths -- with a corrupted pointer faulting some
  lanes mid-group -- must return byte-identical values and identical
  fault classifications at every lane width (``batch_lanes=0/16/32``)
  on either execution tier (``PULSE_INTERP=0/1``), and at one width the
  tier must not move a single completion time.  The bursts run through
  :mod:`tests.scenario`; width 1 is ``batch_lanes=0`` of the same run.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.core import PulseCluster
from repro.isa import IteratorMachine, assemble
from repro.isa.batchmachine import BatchMachine, get_batch_plan
from repro.isa.interpreter import ExecutionFault
from repro.structures import BPlusTree, HashTable, LinkedList, SkipList

from tests.scenario import corrupt_chain, run, total

# -- unit layer: BatchMachine vs the interpreter ------------------------------

NODE_STRIDE = 24
RING_BASE = 4096
RING_NODES = 64

WALK_ASM = """
.name batchdiff_walk
.scratch 16
    LOAD 0 24
    SUB sp[0] sp[0] #1
    MOVE sp[8] data[8]
    COMPARE sp[0] #0
    JUMP_LE done
    MOVE cur_ptr data[16]:8u
    NEXT_ITER
done:
    RETURN
"""

DIV_ASM = """
.name batchdiff_div
.scratch 24
    LOAD 0 24
    MOVE r0 data[0]
    DIV r1 r0 sp[0]
    MOVE sp[8] r1
    COMPARE r1 #0
    JUMP_GE pos
    MOVE sp[16] #1
pos:
    RETURN
"""

IND_ASM = """
.name batchdiff_ind
.scratch 32
    LOAD 0 24
    MOVE r2 sp[0]
    MOVE sp[r2]:4 data[8]:4
    ADD r2 r2 #4
    MOVE sp[0] r2
    COMPARE r2 #24
    JUMP_GE done
    MOVE cur_ptr data[16]:8u
    NEXT_ITER
done:
    RETURN
"""


def build_image() -> bytes:
    """A ring of list nodes; keys include "negative" 64-bit patterns."""
    image = bytearray(RING_BASE + RING_NODES * NODE_STRIDE)
    for i in range(RING_NODES):
        base = RING_BASE + i * NODE_STRIDE
        nxt = RING_BASE + ((i + 1) % RING_NODES) * NODE_STRIDE
        key = (i - 5) % (1 << 64)
        image[base:base + 8] = key.to_bytes(8, "little")
        image[base + 8:base + 16] = (i * 7).to_bytes(8, "little")
        image[base + 16:base + 24] = nxt.to_bytes(8, "little")
    return bytes(image)


IMAGE = build_image()
FLAT = np.frombuffer(IMAGE, dtype=np.uint8)


def scalar_run(program, cur_ptr, scratch, max_iters=100):
    """Interpreter oracle: (cur_ptr, scratch, iterations, fault)."""
    machine = IteratorMachine(program, compiled=False)
    machine.reset(cur_ptr, scratch)

    offset, size = program.load_window

    iters = 0
    fault = None
    try:
        while iters < max_iters:
            addr = machine.cur_ptr + offset
            done, _executed = machine.step(IMAGE[addr:addr + size])
            iters += 1
            if done:
                break
    except ExecutionFault as exc:
        fault = str(exc)
    return machine.cur_ptr, bytes(machine.scratch), iters, fault


def batch_run(program, seeds, max_iters=100):
    """Lockstep all lanes to retirement; returns per-lane state.

    Each entry is ``(status, cur_ptr, scratch, iterations)`` where
    status is ``done`` or the message of the fault that retired the lane.
    """
    plan = get_batch_plan(program)
    machine = BatchMachine(program, plan, len(seeds))
    for lane, (cur_ptr, scratch) in enumerate(seeds):
        machine.seed(lane, cur_ptr, scratch)
    state = {}
    active = np.arange(len(seeds))
    iters = [0] * len(seeds)
    for _ in range(max_iters):
        if len(active) == 0:
            break
        addrs = machine.load_addresses(active)
        rows = FLAT[addrs.astype(np.int64)[:, None]
                    + np.arange(plan.window_size)]
        done, cont, faulted = machine.run_logic(active, rows)
        for lane in done + cont:
            iters[lane] += 1
        for lane in done:
            frame = machine.frames[lane]
            state[lane] = ("done", frame.cur_ptr, bytes(frame.scratch),
                           iters[lane])
        for lane in faulted:
            frame = machine.frames[lane]
            state[lane] = (machine.faults[lane], frame.cur_ptr,
                           bytes(frame.scratch), iters[lane])
        active = np.asarray(cont, dtype=np.int64)
    return state


def test_lockstep_walk_matches_interpreter_lane_by_lane():
    """Mixed-depth ring walks: every lane retires bit-exact."""
    program = assemble(WALK_ASM)
    seeds = [(RING_BASE + (lane % RING_NODES) * NODE_STRIDE,
              (1 + 3 * lane).to_bytes(8, "little"))
             for lane in range(16)]
    state = batch_run(program, seeds)
    for lane, (cur_ptr, scratch) in enumerate(seeds):
        ref_ptr, ref_scratch, ref_iters, fault = scalar_run(
            program, cur_ptr, scratch)
        assert fault is None
        status, got_ptr, got_scratch, got_iters = state[lane]
        assert status == "done"
        assert (got_ptr, got_scratch, got_iters) == \
               (ref_ptr, ref_scratch, ref_iters), f"lane {lane}"


def test_div_by_zero_demotes_only_the_faulting_lane():
    """The zero-divisor lane leaves with the interpreter's exact fault
    and state; all other lanes retire bit-exact."""
    program = assemble(DIV_ASM)
    seeds = []
    for lane in range(11):
        divisor = 0 if lane == 4 else (lane - 5 or 7)
        seeds.append((RING_BASE + lane * NODE_STRIDE,
                      (divisor % (1 << 64)).to_bytes(8, "little")))
    state = batch_run(program, seeds)
    for lane, (cur_ptr, scratch) in enumerate(seeds):
        ref_ptr, ref_scratch, ref_iters, fault = scalar_run(
            program, cur_ptr, scratch)
        assert (fault == "division by zero") == (lane == 4)
        assert state[lane] == (fault or "done", ref_ptr, ref_scratch,
                               ref_iters), f"lane {lane}"


def test_indirect_scratch_cursor_matches_interpreter():
    """SP_IND reads/writes through a moving cursor stay bit-exact; a
    cursor seeded past the pad faults that lane alone, message-exact."""
    program = assemble(IND_ASM)
    seeds = [(RING_BASE + (lane * 3 % RING_NODES) * NODE_STRIDE,
              (40 if lane == 6 else 8).to_bytes(8, "little"))
             for lane in range(10)]
    state = batch_run(program, seeds)
    for lane, (cur_ptr, scratch) in enumerate(seeds):
        ref_ptr, ref_scratch, ref_iters, fault = scalar_run(
            program, cur_ptr, scratch)
        assert (fault is not None) == (lane == 6)
        if fault:
            assert "scratch pad write [40:44] beyond 32 B" in fault
        assert state[lane] == (fault or "done", ref_ptr, ref_scratch,
                               ref_iters), f"lane {lane}"


def test_oversized_seed_faults_like_reset():
    """Seeding a lane reports reset()'s fault, whatever the width."""
    program = assemble(WALK_ASM)
    machine = BatchMachine(program, get_batch_plan(program), 2)
    with pytest.raises(ExecutionFault, match="initial scratch 17 B"):
        machine.seed(1, RING_BASE, bytes(17))


# -- end-to-end layer: mixed-structure bursts across all three tiers ----------

CHAIN_KEYS = 48
TREE_KEYS = 300
SKIP_KEYS = range(1, 120, 2)
#: chain position whose node gets a corrupted next pointer; lookups of
#: deeper keys fault mid-batch while shallower lanes keep running
CORRUPT_DEPTH = 24


def build_world(seed=5, **rack_options):
    """One rack + a mixed-structure, mixed-depth operation burst."""
    cluster = PulseCluster(node_count=2, batch_size=32, seed=seed,
                           **rack_options)
    chain = LinkedList(cluster.memory)
    for key in range(CHAIN_KEYS):
        chain.append(key, key * 7)
    tree = BPlusTree(cluster.memory, fanout=8)
    tree.bulk_load([(k * 2, k * 11) for k in range(TREE_KEYS)])
    skip = SkipList(cluster.memory, seed=7)
    for key in SKIP_KEYS:
        skip.insert(key, key * 5)

    # Corrupt the next pointer at CORRUPT_DEPTH: traversals that walk
    # past it hit an unmapped address and fault mid-batch.
    corrupt_chain(cluster, chain, CORRUPT_DEPTH, 0xDEAD_BEEF_0000)

    operations = []
    for i in range(24):
        operations.append(
            (chain.find_iterator(), ((i * 5) % CHAIN_KEYS,)))
    for i in range(20):
        operations.append(
            (tree.lookup_iterator(), (i * 37 % (2 * TREE_KEYS),)))
    for i in range(20):
        operations.append(
            (skip.find_iterator(), (1 + (i * 13) % 120,)))
    return cluster, operations


def run_tier(monkeypatch, interp: bool, batch: int, **rack_options):
    """(outcomes, snapshot, latencies) of the burst on one tier/width."""
    monkeypatch.setenv("PULSE_INTERP", "1" if interp else "0")
    cluster, operations = build_world(batch_lanes=batch, **rack_options)
    results, snapshot, _end = run(cluster, [operations], batch=True)
    outcomes = [(result.ok,
                 result.value,
                 result.iterations,
                 result.fault.kind if result.fault else None,
                 result.fault.reason if result.fault else None)
                for result in results]
    return outcomes, snapshot, [r.latency_ns for r in results]


def batch_steps(snapshot):
    return total(snapshot, ".batch.steps")


@pytest.mark.parametrize("lanes", [16, 32])
def test_mixed_structure_burst_three_tier_parity(monkeypatch, lanes):
    interp, _, _ = run_tier(monkeypatch, interp=True, batch=0)
    scalar, scalar_snap, _ = run_tier(monkeypatch, interp=False, batch=0)
    batch, batch_snap, batch_ns = run_tier(monkeypatch, interp=False,
                                           batch=lanes)
    oracle, oracle_snap, oracle_ns = run_tier(monkeypatch, interp=True,
                                              batch=lanes)

    assert interp == scalar
    assert scalar == batch
    assert batch == oracle

    # Some lanes really faulted mid-group (the corrupted chain tail),
    # and plenty completed -- the burst genuinely mixed outcomes.
    faulted = [o for o in batch if not o[0]]
    assert faulted, "corruption should fault the deep chain lookups"
    assert all(kind == "remote" for *_a, kind, _r in faulted)
    assert sum(1 for o in batch if o[0]) > len(faulted)

    # Requests really ran as multi-lane groups (and at width 0 none did).
    assert batch_steps(batch_snap) > 0
    assert batch_steps(scalar_snap) == 0

    # The execution tier is invisible to the model: at one lane width
    # the oracle groups, steps and times every request identically.
    assert batch_steps(oracle_snap) == batch_steps(batch_snap)
    assert oracle_ns == batch_ns


def test_split_loads_charges_every_group_step_per_load_run(monkeypatch):
    """The load-aggregation ablation applies to groups too: same values
    and steps, every step's memory phase pays one DRAM tail per load
    run, and the burst takes at least as long as with the single LOAD."""
    single, single_snap, single_ns = run_tier(monkeypatch, interp=False,
                                              batch=32)
    split, split_snap, split_ns = run_tier(monkeypatch, interp=False,
                                           batch=32, split_loads=True)
    assert split == single
    assert batch_steps(split_snap) == batch_steps(single_snap) > 0
    for node in ("mem0", "mem1"):
        one = single_snap["histograms"][f"{node}.acc.span.memory"]
        many = split_snap["histograms"][f"{node}.acc.span.memory"]
        assert many["count"] == one["count"]
        assert many["mean"] > one["mean"]
    assert max(split_ns) >= max(single_ns)


def test_store_kernels_are_never_grouped(monkeypatch):
    """A STORE lands mid-step, so an update kernel runs one lane wide
    even when a whole doorbell burst shares it; the finds beside it
    still group."""
    monkeypatch.delenv("PULSE_INTERP", raising=False)
    cluster = PulseCluster(node_count=1, batch_size=32, batch_lanes=32)
    table = HashTable(cluster.memory, buckets=4, value_bytes=8)
    for key in range(64):
        table.insert(key, key.to_bytes(8, "little"))
    updater, finder = table.update_iterator(), table.find_iterator()
    assert updater.program.has_store and not finder.program.has_store

    def groups_after(operations):
        before = cluster.metrics_snapshot()["counters"].get(
            "mem0.acc.batch.groups", 0)
        pendings = cluster.submit_many(operations)
        cluster.env.run()
        assert all(p.result.ok for p in pendings)
        return cluster.metrics_snapshot()["counters"][
            "mem0.acc.batch.groups"] - before

    assert groups_after([(updater, (key, key + 100))
                         for key in range(16)]) == 0
    assert groups_after([(finder, (key,)) for key in range(16)]) == 1
    assert cluster.run_traversal(finder, 3).value == (103).to_bytes(
        8, "little")


def test_batch_tier_default_on_matches_scalar(monkeypatch):
    """No overrides: the params default (32 lanes) stays correct."""
    monkeypatch.delenv("PULSE_INTERP", raising=False)
    cluster, operations = build_world()
    defaults, _snapshot, _end = run(cluster, [operations], batch=True)
    scalar, _, _ = run_tier(monkeypatch, interp=False, batch=0)
    assert [(r.ok, r.value) for r in defaults] == \
        [(ok, value) for ok, value, *_ in scalar]
