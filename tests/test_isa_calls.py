"""Call-count gates on the compiled ISA tier (counts, not stopwatches).

An iteration is one function call: the host cost of a compiled iteration
must not depend on how many instructions it executes, and an accelerator
lane-step translates, samples, reads its bytes and runs its kernel in one
call (the frame's ``step_fn``, the generated function), plus what the event kernel and the
span histograms cost per step.
Counted under ``sys.setprofile`` like ``tests/test_sim_hold.py`` -- the
counts repeat exactly, so a helper call slipped into the hot path fails
here rather than showing up as benchmark noise.
"""

import sys

from repro.core import PulseCluster
from repro.isa import IteratorMachine
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
    offset, size = iterator.program.load_window
    costs = []
    while True:
        steps = []
        calls = python_calls(lambda: steps.append(machine.step(
            memory.read(machine.cur_ptr + offset, size))))
        done, executed = steps[0]
        costs.append((executed, len(calls)))
        if done:
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


#: repro.isa + repro.mem calls of one accelerator lane-step: none -- the
#: TLB memo, the DRAM slice and the frame's ``step_fn`` (the generated
#: function, which lives in no repro module) are all the lane-step is
LANE_STEP_CALLS = 0
#: repro.obs calls of one lane-step: the memory and logic span records
#: (a lane on its own is a group of one; counters are published inline)
LANE_STEP_OBS_CALLS = 2
#: every repro + generated-kernel call of one lane-step, hotness samples
#: and the event kernel included (26.1 with a call per lookup, read,
#: sample and counter)
LANE_STEP_TOTAL_CALLS = 16.4


def _warm_list_rack():
    cluster = PulseCluster(node_count=1)
    lst = LinkedList(cluster.memory)
    lst.extend((k, k) for k in range(1, 41))
    finder = lst.find_iterator()
    cluster.run_traversal(finder, 1)    # compile, warm the TLB
    return cluster, finder


def lane_step_calls(only):
    """Calls per accelerator lane-step whose file path contains one of
    ``only``: two traversals differing only in length, so everything per
    request cancels and what is left is per lane-step."""
    def traversal_calls(length):
        cluster, finder = _warm_list_rack()
        results = []
        calls = python_calls(
            lambda: results.append(cluster.run_traversal(finder, length)),
            only=only)
        assert results[0].iterations == length
        return len(calls)

    return (traversal_calls(40) - traversal_calls(10)) / 30


def test_accelerator_lane_step_call_budget(monkeypatch):
    monkeypatch.delenv("PULSE_INTERP", raising=False)   # the compiled tier
    assert lane_step_calls(("/repro/isa/", "/repro/mem/")) <= LANE_STEP_CALLS


def test_lane_step_metrics_call_budget(monkeypatch):
    monkeypatch.delenv("PULSE_INTERP", raising=False)
    assert lane_step_calls(("/repro/obs/",)) <= LANE_STEP_OBS_CALLS


def test_lane_step_total_call_budget(monkeypatch):
    monkeypatch.delenv("PULSE_INTERP", raising=False)
    assert lane_step_calls(("/repro/", "<pulse-kernel:")) <= \
        LANE_STEP_TOTAL_CALLS


def test_hotness_is_called_only_when_a_sample_is_due(monkeypatch):
    """The accelerator counts the tracker's skip down itself: every call
    it makes into repro.placement is a ``take``, one per sample actually
    recorded."""
    monkeypatch.delenv("PULSE_INTERP", raising=False)
    cluster, finder = _warm_list_rack()
    tracker = cluster.placement.tracker
    before = tracker.samples
    entries = []

    def profiler(frame, event, _arg):
        if (event == "call"
                and "/repro/placement/" in frame.f_code.co_filename
                and "/repro/core/accelerator" in
                frame.f_back.f_code.co_filename):
            entries.append(frame.f_code.co_name)

    sys.setprofile(profiler)
    try:
        result = cluster.run_traversal(finder, 40)
    finally:
        sys.setprofile(None)
    assert result.iterations == 40
    taken = tracker.samples - before
    assert 0 < taken < 40
    assert entries == ["take"] * taken
