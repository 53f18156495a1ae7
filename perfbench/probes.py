"""Isolated probes: host nanoseconds per call of one public function.

Each probe builds the smallest harness around one layer's hot entry point
and returns ``run(calls)``.  :func:`run_probes` times several repetitions
of each and reports the median ns per call.  Probes say what one call
costs in isolation; the traced run says how often it is made.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict

import numpy as np

from repro.durability.redolog import RedoLog
from repro.index import SplitIndexDirectory
from repro.isa import IteratorMachine, assemble
from repro.isa.batchmachine import BatchMachine, get_batch_plan
from repro.mem.node import GlobalMemory
from repro.mem.translation import TranslationCache
from repro.obs.metrics import MetricsRegistry
from repro.params import (DEFAULT_PARAMS, NetworkParams, PlacementParams,
                          TransportParams)
from repro.placement.hotness import HotnessTracker
from repro.sim.engine import Environment
from repro.sim.network import Fabric, Message
from repro.sim.resources import Resource
from repro.transport import TransportSession

REPETITIONS = 5
#: host seconds one repetition aims for; short because every traced run
#: repeats all probes
REPETITION_S = 0.05

#: simulated gap between paced sends: wide enough that nothing queues at
#: the sender's egress or trips a retransmit timer
PACE_NS = 1_000.0

NODE_STRIDE = 24
RING_BASE = 4096
RING_NODES = 512
BATCH_LANES = 32

WALK_ASM = """
.name probe_walk
.scratch 16
    LOAD 0 24
    SUB sp[0] sp[0] #1          ; remaining hops
    MOVE sp[8] data[8]          ; touch the value
    COMPARE sp[0] #0
    JUMP_LE done
    MOVE cur_ptr data[16]:8u
    NEXT_ITER
done:
    RETURN
"""

Probe = Callable[[int], None]


def _ring_image() -> bytes:
    """A ring of RING_NODES list nodes in one flat byte image."""
    image = bytearray(RING_BASE + RING_NODES * NODE_STRIDE)
    for i in range(RING_NODES):
        base = RING_BASE + i * NODE_STRIDE
        nxt = RING_BASE + ((i + 1) % RING_NODES) * NODE_STRIDE
        image[base:base + 8] = i.to_bytes(8, "little")
        image[base + 8:base + 16] = (i * 7).to_bytes(8, "little")
        image[base + 16:base + 24] = nxt.to_bytes(8, "little")
    return bytes(image)


def _engine_event() -> Probe:
    env = Environment()

    def ticker(calls):
        for _ in range(calls):
            yield env.timeout(1.0)

    return lambda calls: env.run(until=env.process(ticker(calls)))


def _resource_acquire() -> Probe:
    env = Environment()
    resource = Resource(env, capacity=1)

    def holder(calls):
        for _ in range(calls):
            grant = resource.request()
            yield grant
            resource.release(grant)

    return lambda calls: env.run(until=env.process(holder(calls)))


def _drain(env, inbox):
    def receiver():
        while True:
            yield inbox.get()
    env.process(receiver())


def _paced(env, send: Callable[[], None]) -> Probe:
    def sender(calls):
        for _ in range(calls):
            send()
            yield env.timeout(PACE_NS)

    def run(calls):
        env.process(sender(calls))
        env.run()
    return run


def _fabric_send() -> Probe:
    env = Environment()
    fabric = Fabric(env, NetworkParams())
    fabric.register("a")
    _drain(env, fabric.register("b").inbox)
    return _paced(env, lambda: fabric.send(
        Message("probe", "a", "b", 64), segments=1))


def _transport_send_ack() -> Probe:
    env = Environment()
    fabric = Fabric(env, NetworkParams())
    params = TransportParams(mode="always")
    sender = TransportSession(env, fabric, "a", params)
    _drain(env, sender.inbox)
    _drain(env, TransportSession(env, fabric, "b", params).inbox)
    return _paced(env, lambda: sender.send("b", "probe", None, 64,
                                           segments=1))


def _iterator_machine(compiled: bool) -> Probe:
    image = _ring_image()
    machine = IteratorMachine(assemble(WALK_ASM), compiled=compiled)

    def read(vaddr, size):
        return image[vaddr:vaddr + size]

    def run(calls):
        machine.reset(RING_BASE, calls.to_bytes(8, "little"))
        machine.run(read, max_iterations=calls + 1)
    return run


def _batch_lane_iter() -> Probe:
    program = assemble(WALK_ASM)
    plan = get_batch_plan(program)
    machine = BatchMachine(program, plan, BATCH_LANES)
    flat = np.frombuffer(_ring_image(), dtype=np.uint8)
    columns = np.arange(plan.window_size)
    lanes = np.arange(BATCH_LANES)

    def run(calls):
        steps = max(1, calls // BATCH_LANES)
        for lane in range(BATCH_LANES):
            machine.seed(lane, RING_BASE + lane * NODE_STRIDE,
                         (steps + 1).to_bytes(8, "little"))
        for _ in range(steps):
            addrs = machine.load_addresses(lanes).astype(np.int64)
            machine.run_logic(lanes, flat[addrs[:, None] + columns])
    return run


def _tlb_lookup() -> Probe:
    memory = GlobalMemory(1, DEFAULT_PARAMS.memory.node_capacity_bytes)
    addrs = [memory.alloc(256) for _ in range(64)]
    tlb = TranslationCache(memory.nodes[0].table,
                           DEFAULT_PARAMS.accelerator.tlb_entries_per_core)

    def run(calls):
        lookup = tlb.lookup
        for i in range(calls):
            lookup(addrs[i & 63], 256)
    return run


def _alloc_free() -> Probe:
    memory = GlobalMemory(1, DEFAULT_PARAMS.memory.node_capacity_bytes)

    def run(calls):
        for _ in range(calls):
            memory.free(memory.alloc(256))
    return run


def _counter_inc() -> Probe:
    counter = MetricsRegistry().counter("probe.counter")

    def run(calls):
        inc = counter.inc
        for _ in range(calls):
            inc()
    return run


def _hist_record() -> Probe:
    hist = MetricsRegistry().histogram("probe.hist")

    def run(calls):
        record = hist.record
        for i in range(calls):
            record(100.0 + (i & 1023))
    return run


def _hotness_sample() -> Probe:
    placement = PlacementParams()
    tracker = HotnessTracker(placement.segment_bytes,
                             placement.hot_halflife_ns, clock=lambda: 0.0,
                             sample_period=placement.sample_period)

    def run(calls):
        sample = tracker.sample
        for i in range(calls):
            vaddr = (i & 4095) * 4096
            sample(vaddr + 4096, prev=vaddr)
    return run


def _redolog_append() -> Probe:
    log = RedoLog(DEFAULT_PARAMS.durability.record_header_bytes)
    data = bytes(8)

    def run(calls):
        for i in range(calls):
            log.append(i * 8, data)
            if i & 15 == 15:  # a group commit picks the buffer up
                log.take_buffer()
        log.take_buffer()
    return run


def _index_lookup() -> Probe:
    directory = SplitIndexDirectory()
    for key in range(4096):
        directory.learn(key, 0, key * 64, 0)

    def run(calls):
        lookup = directory.lookup
        for i in range(calls):
            lookup(i & 8191)  # half hits, half misses
    return run


PROBES: Dict[str, Callable[[], Probe]] = {
    "probe.sim.engine.event_ns": _engine_event,
    "probe.sim.resources.acquire_ns": _resource_acquire,
    "probe.sim.network.send_ns": _fabric_send,
    "probe.transport.send_ack_ns": _transport_send_ack,
    "probe.isa.interp_iter_ns": lambda: _iterator_machine(False),
    "probe.isa.compiled_iter_ns": lambda: _iterator_machine(True),
    "probe.isa.batch_lane_iter_ns": _batch_lane_iter,
    "probe.mem.tlb_lookup_ns": _tlb_lookup,
    "probe.mem.alloc_free_ns": _alloc_free,
    "probe.obs.counter_inc_ns": _counter_inc,
    "probe.obs.hist_record_ns": _hist_record,
    "probe.placement.sample_ns": _hotness_sample,
    "probe.durability.append_ns": _redolog_append,
    "probe.index.lookup_ns": _index_lookup,
}


def _time(run: Probe, calls: int) -> float:
    start = time.perf_counter()
    run(calls)
    return time.perf_counter() - start


def run_probes() -> Dict[str, float]:
    """Median host ns per call of every probe."""
    out = {}
    for name, make in PROBES.items():
        run = make()
        calls = 256
        elapsed = _time(run, calls)  # also the probe's warm-up
        while elapsed < REPETITION_S / 4:
            calls *= 4
            elapsed = _time(run, calls)
        calls = max(calls, int(calls * REPETITION_S / elapsed))
        out[name] = statistics.median(
            _time(run, calls) / calls * 1e9 for _ in range(REPETITIONS))
    return out
