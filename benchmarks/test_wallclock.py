"""Simulator wall-clock benchmark: interpreted vs compiled vs grouped.

Unlike every other file in this directory, which measures *simulated*
time, this one measures the *simulator's own* speed -- the reason the
compile tier (``repro.isa.compiler``: one Python function per iteration
body) exists and the
host-side payoff of lane groups.  Three measurements:

* **Microbench**: raw ``IteratorMachine`` iterations/sec chasing a ring
  of list nodes in a flat byte image, interpreted vs compiled.  This
  isolates the ISA execution loop from the discrete-event engine.
* **End to end**: one open-loop pulse cell (UPC workload) wall clock
  with ``PULSE_INTERP=1`` vs the compiled default.  The event engine
  dominates here, so the win is smaller, but compiled mode must never
  be meaningfully slower.
* **Lane groups**: the chain/B-tree mix driven open loop in bursts of
  64 through the doorbell batcher, ``batch_lanes=0`` (every request a
  group of one lane) vs ``batch_lanes=32`` (each burst splits into a
  32-lane chain group and a 32-lane tree group).  The ISA work per lane
  is the same compiled frame either way; the event-engine work
  collapses to one memory phase and one logic hold per *step* instead
  of per lane, so the wall-clock win is large.

Two further measurements ride on the batch cell:

* **Sharded tier**: the same chain/B-tree mix on a four-node rack,
  single process vs ``cluster.shard(workers=4)``.  The >= 5x gate only
  makes physical sense with one core per worker plus the coordinator,
  so it is enforced when the host grants >= 5 CPUs and recorded (with
  the reason) either way.
* **Million-request run**: a large open-loop drive -- the driver
  aggregates instead of keeping results and completes in O(N) via a
  counting done-event, so a million requests is a routine bench rather than an
  O(N^2) all-of stall.  Honors ``REPRO_BENCH_SCALE``.

Results land in the repo-root ``BENCH_wallclock.json``.  The
acceptance bars -- compiled >= 3x interpreted on the microbench, and
32 lanes >= 3x lane width 1 end to end -- are asserted, so CI
fails on a performance regression of either.  The group bar is a ratio
whose denominator is the width-1 run; both legs' absolute wall clocks
are recorded next to it so it is never read alone.

Every measurement runs after an explicit warmup pass (module import
costs, kernel compilation, allocator pools), so the first timed round
does not pay one-time setup.
"""

import json
import os
import random
import time
from pathlib import Path

from conftest import SCALE, scale_requests

from repro.bench.driver import run_open_loop
from repro.bench.experiments import run_open_loop_cell
from repro.bench.report import REPO_ROOT, write_snapshot
from repro.core import PulseCluster
from repro.isa import IteratorMachine, assemble
from repro.structures import BPlusTree, LinkedList

NODE_STRIDE = 24
RING_BASE = 4096
RING_NODES = 512

WALK_ASM = """
.name wallclock_walk
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

UPC_KW = {"num_pairs": 2000, "chain_length": 4}

#: lane-group cell: deep chain walks + B+Tree lookups, 32 lockstep lanes
BATCH_LANES = 32
#: doorbell burst size; each burst splits into one chain group and one
#: tree group, so every group is 32 lanes wide
BATCH_BURST = 64
BATCH_CHAIN_NODES = 128
#: chain lookups target the last few keys, so every lane walks nearly
#: the full chain -- deep lockstep traversals with no straggler tail
BATCH_CHAIN_TAIL = 8
BATCH_TREE_KEYS = 1024
BATCH_LOAD_PER_S = 8e6
#: asserted floor of width-1 wall clock / 32-lane wall clock
BATCH_BAR = 3.0

#: sharded tier: one worker process per memory node on a 4-node rack
SHARD_NODES = 4
SHARD_WORKERS = 4
#: the parallel gate needs one core per worker plus the coordinator
GATE_MIN_CPUS = SHARD_WORKERS + 1
CPUS = len(os.sched_getaffinity(0))

MILLION_REQUESTS = 1_000_000
#: below the single-node batch cell's saturation point, so in-flight
#: work stays bounded and wall clock scales linearly with requests
MILLION_LOAD_PER_S = 4e6
ROUTINE_TARGET_S = 120.0


def build_ring_image():
    """A ring of RING_NODES list nodes in one flat byte image."""
    image = bytearray(RING_BASE + RING_NODES * NODE_STRIDE)
    for i in range(RING_NODES):
        base = RING_BASE + i * NODE_STRIDE
        nxt = RING_BASE + ((i + 1) % RING_NODES) * NODE_STRIDE
        image[base:base + 8] = i.to_bytes(8, "little")
        image[base + 8:base + 16] = (i * 7).to_bytes(8, "little")
        image[base + 16:base + 24] = nxt.to_bytes(8, "little")
    return bytes(image)


_WARMED = False


def warm_up():
    """One untimed pass over every code path the timers cover.

    Primes bytecode caches, the compile tier's per-kernel code
    generation and the cluster/allocator pools, so the first timed measurement in
    this module is not also the first execution of anything.
    """
    global _WARMED
    if _WARMED:
        return
    _WARMED = True
    program = assemble(WALK_ASM)
    image = build_ring_image()

    def read(vaddr, size):
        return image[vaddr:vaddr + size]

    for compiled in (False, True):
        machine = IteratorMachine(program, compiled=compiled)
        machine.reset(RING_BASE, (64).to_bytes(8, "little"))
        machine.run(read, max_iterations=65)
    cluster, operations = build_batch_cell(BATCH_BURST * 2)
    run_open_loop(cluster, operations, BATCH_LOAD_PER_S, seed=7,
                  burst=BATCH_BURST)


def build_batch_cell(requests: int, node_count: int = 1,
                     batch_lanes: int = 32):
    """The chain/B-tree mixed cell shared by the batch-tier, sharded,
    and million-request measurements."""
    cluster = PulseCluster(node_count=node_count, batch_size=BATCH_BURST,
                           seed=7, batch_lanes=batch_lanes)
    chain = LinkedList(cluster.memory)
    for key in range(BATCH_CHAIN_NODES):
        chain.append(key, key * 3)
    tree = BPlusTree(cluster.memory, fanout=8)
    for key in range(BATCH_TREE_KEYS):
        tree.insert(key, key * 5)
    finder = chain.find_iterator()
    lookup = tree.lookup_iterator()
    rng = random.Random(13)
    operations = []
    for _ in range(requests):
        if rng.random() < 0.5:
            operations.append((finder, (rng.randrange(
                BATCH_CHAIN_NODES - BATCH_CHAIN_TAIL,
                BATCH_CHAIN_NODES),)))
        else:
            operations.append(
                (lookup, (rng.randrange(BATCH_TREE_KEYS),)))
    return cluster, operations


def measure_iterations_per_sec(compiled: bool, hops: int,
                               rounds: int = 3,
                               warmup_rounds: int = 1) -> float:
    warm_up()
    program = assemble(WALK_ASM)
    image = build_ring_image()

    def read(vaddr, size):
        return image[vaddr:vaddr + size]

    machine = IteratorMachine(program, compiled=compiled)
    for _ in range(warmup_rounds):
        machine.reset(RING_BASE, hops.to_bytes(8, "little"))
        machine.run(read, max_iterations=hops + 1)
    best = 0.0
    for _ in range(rounds):
        machine.reset(RING_BASE, hops.to_bytes(8, "little"))
        start = time.perf_counter()
        machine.run(read, max_iterations=hops + 1)
        elapsed = time.perf_counter() - start
        assert machine.iterations == hops
        best = max(best, hops / elapsed)
    return best


def merge_wallclock_snapshot(metrics: dict, derived: dict,
                             params: dict) -> Path:
    """Fold one measurement section into ``BENCH_wallclock.json``.

    The compiled-tier, sharded-tier, and million-request tests each
    contribute sections to the same headline snapshot; whichever runs
    later must not clobber the earlier sections, so this reads the
    current file, merges, and rewrites through ``write_snapshot``.
    """
    path = REPO_ROOT / "BENCH_wallclock.json"
    existing = {"params": {}, "metrics": {}, "derived": {}}
    if path.exists():
        existing.update(json.loads(path.read_text()))
    existing["params"].update(params)
    existing["metrics"].update(metrics)
    existing["derived"].update(derived)
    return write_snapshot("wallclock", params=existing["params"],
                          metrics=existing["metrics"],
                          derived=existing["derived"])


def measure_e2e_seconds(interpreted: bool) -> float:
    warm_up()
    previous = os.environ.get("PULSE_INTERP")
    os.environ["PULSE_INTERP"] = "1" if interpreted else "0"
    try:
        start = time.perf_counter()
        cell = run_open_loop_cell(
            "pulse", "UPC", 8e6, node_count=1,
            requests=scale_requests(300), seed=11,
            workload_kwargs=UPC_KW)
        elapsed = time.perf_counter() - start
    finally:
        if previous is None:
            del os.environ["PULSE_INTERP"]
        else:
            os.environ["PULSE_INTERP"] = previous
    assert cell.stats.completed > 0
    return elapsed


def measure_batch_e2e_seconds(batch_lanes: int, requests: int) -> float:
    """Wall clock of the chain/B-tree mix at one ``batch_lanes`` width.

    Structure build and operation-list prep run untimed (identical in
    both tiers); the timer covers only the open-loop drive.
    """
    warm_up()
    cluster, operations = build_batch_cell(requests,
                                           batch_lanes=batch_lanes)
    start = time.perf_counter()
    stats = run_open_loop(cluster, operations, BATCH_LOAD_PER_S,
                          seed=7, burst=BATCH_BURST)
    elapsed = time.perf_counter() - start
    assert stats.completed == requests
    assert stats.faults == 0
    return elapsed


def test_compiled_tier_wallclock():
    hops = max(2_000, int(20_000 * SCALE))
    interp_ips = measure_iterations_per_sec(compiled=False, hops=hops)
    compiled_ips = measure_iterations_per_sec(compiled=True, hops=hops)
    micro_speedup = compiled_ips / interp_ips

    e2e_interp_s = measure_e2e_seconds(interpreted=True)
    e2e_compiled_s = measure_e2e_seconds(interpreted=False)
    e2e_speedup = e2e_interp_s / e2e_compiled_s

    batch_requests = scale_requests(960)
    batch_scalar_s = measure_batch_e2e_seconds(0, batch_requests)
    batch_vector_s = measure_batch_e2e_seconds(BATCH_LANES,
                                               batch_requests)
    batch_speedup = batch_scalar_s / batch_vector_s

    metrics = {
        "microbench": {
            "hops": hops,
            "interpreted_iterations_per_sec": round(interp_ips),
            "compiled_iterations_per_sec": round(compiled_ips),
            "speedup": round(micro_speedup, 2),
        },
        "end_to_end_open_loop": {
            "requests": scale_requests(300),
            "interpreted_wallclock_s": round(e2e_interp_s, 3),
            "compiled_wallclock_s": round(e2e_compiled_s, 3),
            "speedup": round(e2e_speedup, 2),
        },
        "batch_tier_open_loop": {
            "requests": batch_requests,
            "batch_lanes": BATCH_LANES,
            "scalar_wallclock_s": round(batch_scalar_s, 3),
            "batch_wallclock_s": round(batch_vector_s, 3),
            "speedup": round(batch_speedup, 2),
        },
    }
    report = {
        "name": "wallclock",
        "params": {"scale": SCALE},
        "metrics": metrics,
        "derived": {
            "micro_speedup": round(micro_speedup, 2),
            "e2e_speedup": round(e2e_speedup, 2),
            "batch_speedup": round(batch_speedup, 2),
        },
    }
    path = merge_wallclock_snapshot(metrics, report["derived"],
                                    report["params"])
    print(f"\n{json.dumps(report, indent=2)}\n[saved to {path}]")

    # The acceptance bar for the compile tier.
    assert micro_speedup >= 3.0, report
    # The event engine dominates end to end; compiled mode must at the
    # very least not regress wall clock (small slack for timer noise).
    assert e2e_speedup >= 0.85, report
    # The acceptance bar for lane groups: amortising the per-iteration
    # event-engine work over 32 lanes must pay >= 3x over lane width 1
    # on the chain/B-tree mix.
    assert batch_speedup >= BATCH_BAR, (
        f"32 lanes below {BATCH_BAR}x lane width 1.  Both legs run the "
        "same compiled frames; the ratio is heap events per request "
        "(one memory phase and one logic hold per step instead of per "
        "lane).  Five runs at REPRO_BENCH_SCALE=0.25 read 3.92-4.23 "
        "(0.44-0.47 s / 0.108-0.114 s) when the bar was set.  Read "
        "scalar_wallclock_s and batch_wallclock_s, not the ratio "
        "alone.", report)


def measure_sharded_e2e_seconds(workers: int, requests: int) -> float:
    """Wall clock of the 4-node batch cell, in-process or sharded."""
    warm_up()
    cluster, operations = build_batch_cell(requests,
                                           node_count=SHARD_NODES,
                                           batch_lanes=BATCH_LANES)
    if workers:
        cluster.shard(workers=workers)
    try:
        start = time.perf_counter()
        stats = run_open_loop(cluster, operations, BATCH_LOAD_PER_S,
                              seed=7, burst=BATCH_BURST)
        elapsed = time.perf_counter() - start
    finally:
        cluster.shutdown()
    assert stats.completed == requests
    assert stats.faults == 0
    return elapsed


def test_sharded_wallclock():
    """Single process vs one worker process per memory node.

    The >= 5x gate assumes each worker (plus the coordinator) gets its
    own core; on smaller hosts the measurement still runs and lands in
    the snapshot -- with ``gate_enforced: false`` and the reason -- so
    the numbers stay honest instead of silently green.
    """
    requests = scale_requests(960)
    single_s = measure_sharded_e2e_seconds(0, requests)
    sharded_s = measure_sharded_e2e_seconds(SHARD_WORKERS, requests)
    speedup = single_s / sharded_s
    gate_enforced = CPUS >= GATE_MIN_CPUS
    gate_reason = (
        f"host grants {CPUS} CPUs >= {GATE_MIN_CPUS}" if gate_enforced
        else f"host grants {CPUS} CPUs < {GATE_MIN_CPUS} (one per "
             "worker plus the coordinator): pipe round-trips serialize "
             "onto shared cores, so the >= 5x bar is recorded but not "
             "asserted")
    metrics = {
        "sharded_open_loop": {
            "requests": requests,
            "node_count": SHARD_NODES,
            "workers": SHARD_WORKERS,
            "batch_lanes": BATCH_LANES,
            "single_process_wallclock_s": round(single_s, 3),
            "sharded_wallclock_s": round(sharded_s, 3),
            "speedup": round(speedup, 2),
            "cpus": CPUS,
            "gate_enforced": gate_enforced,
            "gate_reason": gate_reason,
        },
    }
    derived = {"sharded_speedup": round(speedup, 2),
               "sharded_gate_enforced": gate_enforced}
    path = merge_wallclock_snapshot(metrics, derived, {"scale": SCALE})
    print(f"\n{json.dumps(metrics, indent=2)}\n[saved to {path}]")
    if gate_enforced:
        assert speedup >= 5.0, metrics


def measure_open_loop_seconds(requests: int) -> float:
    cluster, operations = build_batch_cell(requests,
                                           batch_lanes=BATCH_LANES)
    start = time.perf_counter()
    stats = run_open_loop(cluster, operations, MILLION_LOAD_PER_S,
                          seed=7, burst=BATCH_BURST)
    elapsed = time.perf_counter() - start
    assert stats.completed == requests
    assert stats.faults == 0
    return elapsed


def test_million_request_open_loop():
    """A million-request drive is a routine bench, not an O(N^2) stall.

    The open-loop driver aggregates stats instead of retaining a
    million ``TraversalResult`` objects, and the driver's counting
    done-event replaces the old all-of barrier whose observer list made
    completion quadratic.  The structural assertion is linearity: the
    full run's per-request cost must stay within 3x of a 10x-smaller
    probe run's.  Absolute wall clock depends on host silicon, so the
    <2 min routine target is recorded (with the projection to a full
    million) rather than asserted on scaled-down or slow hosts.
    """
    warm_up()
    requests = max(20_000, int(MILLION_REQUESTS * SCALE))
    probe = max(2_000, requests // 10)
    probe_s = measure_open_loop_seconds(probe)
    full_s = measure_open_loop_seconds(requests)
    rate = requests / full_s
    projected_million_s = MILLION_REQUESTS / rate
    linearity = (full_s / probe_s) / (requests / probe)
    metrics = {
        "million_request_open_loop": {
            "requests": requests,
            "probe_requests": probe,
            "offered_load_per_s": MILLION_LOAD_PER_S,
            "batch_lanes": BATCH_LANES,
            "wallclock_s": round(full_s, 3),
            "requests_per_sec": round(rate),
            "projected_million_s": round(projected_million_s, 1),
            "routine_target_s": ROUTINE_TARGET_S,
            "routine_on_this_host":
                projected_million_s <= ROUTINE_TARGET_S,
            "linearity_vs_probe": round(linearity, 2),
        },
    }
    derived = {
        "million_projected_s": round(projected_million_s, 1),
        "million_linearity": round(linearity, 2),
    }
    path = merge_wallclock_snapshot(metrics, derived, {"scale": SCALE})
    print(f"\n{json.dumps(metrics, indent=2)}\n[saved to {path}]")
    # O(N) termination: per-request cost must not grow with N.
    assert linearity <= 3.0, metrics
