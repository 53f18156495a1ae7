"""Helpers shared by the test modules."""

from collections import Counter
from dataclasses import replace

from repro.core import PulseCluster
from repro.isa import Opcode
from repro.isa.instructions import JUMP_OPCODES
from repro.params import (DEFAULT_PARAMS, NetworkParams, SystemParams,
                          TransportParams)
from repro.sim.engine import Process
from repro.sim.network import LinkProfile


def counter_value(component, name):
    """One counter of ``component.registry``; unknown names raise."""
    return component.registry.snapshot()["counters"][name]


def with_memory(params=DEFAULT_PARAMS, **fields):
    """``params`` with the given ``MemoryParams`` fields replaced
    (``node_capacity_bytes``, ``cache_bytes``, ...)."""
    return replace(params, memory=replace(params.memory, **fields))


def lossy_cluster(drop, timeout_ns=40_000.0, **cluster_kwargs):
    """A rack losing packets the transport does not see.

    Every link drops with probability ``drop`` while per-hop
    reliability never arms (``mode="never"``), so the client's
    end-to-end retry (after ``timeout_ns``) is the only recovery.
    """
    params = SystemParams(
        network=NetworkParams(retransmit_timeout_ns=timeout_ns),
        transport=TransportParams(mode="never"))
    cluster = PulseCluster(params=params, **cluster_kwargs)
    cluster.fabric.configure_all_links(LinkProfile(drop_probability=drop))
    return cluster


def reference_hold(env, resource, duration, then=None):
    """A timed stage as it was spelled before ``Resource.hold``.

    The ``_hold`` generator the accelerator, the client, the fabric and
    the baselines each carried (request, wait for the grant, wait out the
    duration, release), followed by the stage's latency tail as one more
    timeout.  Kept only as the oracle ``tests/test_sim_hold.py`` runs
    ``Resource.hold`` against.
    """
    grant = resource.request()
    yield grant
    try:
        yield env.timeout(duration)
    finally:
        resource.release(grant)
    if then is not None:
        yield env.timeout(then)


def count_process_starts(monkeypatch):
    """Count every ``Process`` started from here on, by the generator's
    ``__qualname__`` (``"Accelerator._admit"``); returns the live
    :class:`collections.Counter`."""
    started = Counter()
    init = Process.__init__

    def counting_init(self, env, generator):
        started[generator.__qualname__] += 1
        init(self, env, generator)

    monkeypatch.setattr(Process, "__init__", counting_init)
    return started


class ReferenceDedup:
    """A receive flow's duplicate filter as it was before the floor
    absorbed the seen seqs contiguous with it: ``floor`` moves only when
    ``seen`` overflows the window.  Kept only as the oracle
    ``tests/test_transport.py`` runs ``TransportSession`` against."""

    def __init__(self, window):
        self.window = window
        self.floor = 0
        self.seen = set()

    def accept(self, seq):
        """Whether ``seq`` is delivered (False: dropped as a duplicate)."""
        if seq <= self.floor or seq in self.seen:
            return False
        self.seen.add(seq)
        while len(self.seen) > self.window:
            self.floor += 1
            self.seen.discard(self.floor)
        return True


def reference_iteration_paths(program):
    """Every control path from entry to a NEXT_ITER or RETURN, as pc
    lists, in depth-first order with a jump's fall-through before its
    target -- the enumeration the offload engine's analysis ran before
    ``Program.longest_paths``.  Exponential in the number of chained
    branches; kept only as the oracle ``tests/test_static_analysis.py``
    runs the backward pass against."""
    paths = []
    stack = [(0, [])]
    while stack:
        index, path = stack.pop()
        instr = program.instructions[index]
        path = path + [index]
        if instr.opcode in (Opcode.RETURN, Opcode.NEXT_ITER):
            paths.append(path)
            continue
        if instr.opcode in JUMP_OPCODES:
            stack.append((instr.target, path))
        if index + 1 < len(program.instructions):
            stack.append((index + 1, path))
    return paths


def reference_naive_load_runs(program):
    """``Program.naive_load_runs`` over :func:`reference_iteration_paths`:
    the data runs of the first longest path ending in NEXT_ITER, or of
    the first longest path when none does."""
    paths = reference_iteration_paths(program)
    recurring = []
    for path in paths:
        if (program.instructions[path[-1]].opcode is Opcode.NEXT_ITER
                and len(path) > len(recurring)):
            recurring = path
    if not recurring:
        recurring = max(paths, key=len)
    intervals = sorted(
        (operand.value, operand.value + operand.width)
        for index in recurring
        for operand in (program.instructions[index].dst,
                        program.instructions[index].a,
                        program.instructions[index].b)
        if operand is not None and operand.bank.value == "data")
    if not intervals:
        return [program.load_window]
    runs = []
    start, end = intervals[0]
    for lo, hi in intervals[1:]:
        if lo <= end:
            end = max(end, hi)
        else:
            runs.append((start, end - start))
            start, end = lo, hi
    runs.append((start, end - start))
    return runs
