"""Call-count gates on the compiled ISA tier (counts, not stopwatches).

An iteration is one function call: the host cost of a compiled iteration
must not depend on how many instructions it executes, and an accelerator
lane-step must reach its bytes and run its kernel in a handful of calls.
Counted under ``sys.setprofile`` like ``tests/test_sim_hold.py`` -- the
counts repeat exactly, so a helper call slipped into the hot path fails
here rather than showing up as benchmark noise.
"""

import sys

from repro.core import PulseCluster
from repro.isa import IterationOutcome, IteratorMachine
from repro.mem import GlobalMemory
from repro.structures import BPlusTree, HashTable, LinkedList


def python_calls(action, only=()):
    """Python-level calls made by ``action()``; ``only`` keeps the frames
    whose file path contains one of the given fragments."""
    calls = []

    def profiler(frame, event, _arg):
        if event == "call":
            filename = frame.f_code.co_filename
            if not only or any(part in filename for part in only):
                calls.append(frame.f_code.co_name)

    sys.setprofile(profiler)
    try:
        action()
    finally:
        sys.setprofile(None)
    return calls


def iteration_costs(iterator, memory, *args):
    """(instructions executed, Python calls) of every compiled iteration
    of one traversal."""
    machine = IteratorMachine(iterator.program, compiled=True)
    machine.reset(*iterator.init(*args))
    costs = []
    while True:
        steps = []
        calls = python_calls(lambda: steps.append(
            machine.run_iteration(memory.read)))
        costs.append((steps[0].instructions_executed, len(calls)))
        if steps[0].outcome is IterationOutcome.DONE:
            return costs


def test_calls_per_iteration_do_not_depend_on_instructions_executed():
    memory = GlobalMemory(node_count=1, node_capacity=8 << 20)
    table = HashTable(memory, buckets=2, value_bytes=8)
    for key in range(8):
        table.insert(key, key.to_bytes(8, "little"))
    tree = BPlusTree(memory, fanout=8)
    tree.bulk_load([(k, k) for k in range(400)])

    find = iteration_costs(table.find_iterator(), memory, 5)
    scan = iteration_costs(tree.scan_count_iterator(limit=64), memory, 100)
    executed = [count for count, _ in find + scan]
    assert min(executed) <= 7 and max(executed) >= 50, executed
    assert len({calls for _, calls in find + scan}) == 1, (find, scan)


#: repro.isa + repro.mem calls of one accelerator lane-step: the TLB
#: lookup and its one ``covers``, ``PhysicalMemory.read`` and its bounds
#: check, ``IteratorMachine.step``
LANE_STEP_CALLS = 5


def test_accelerator_lane_step_call_budget(monkeypatch):
    monkeypatch.delenv("PULSE_INTERP", raising=False)   # the compiled tier

    def traversal_calls(length):
        cluster = PulseCluster(node_count=1)
        lst = LinkedList(cluster.memory)
        lst.extend((k, k) for k in range(1, 41))
        finder = lst.find_iterator()
        cluster.run_traversal(finder, 1)    # compile, warm the TLB
        results = []
        calls = python_calls(
            lambda: results.append(cluster.run_traversal(finder, length)),
            only=("/repro/isa/", "/repro/mem/"))
        assert results[0].iterations == length
        return len(calls)

    # Two traversals differing only in length: everything per request
    # cancels, what is left is per lane-step.
    short, long = traversal_calls(10), traversal_calls(40)
    assert (long - short) % 30 == 0
    assert (long - short) // 30 <= LANE_STEP_CALLS
