"""The five benchmark workloads: rack, seeded request streams, oracle.

Every workload builds one rack and three request streams from the
``--seed`` (priming, latency phase, capacity phase).  The rack's own RNG
streams (fabric, hotness sampling) are configuration and stay fixed at
:data:`RACK_SEED`; the program sees the seed only through the generated
inputs.  Request counts scale with ``--seconds``; the rates, burst sizes
and client counts that define each workload do not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import PulseCluster
from repro.params import DEFAULT_PARAMS, DurabilityParams, TransportParams
from repro.structures import BPlusTree, HashTable, LinkedList
from repro.workloads import build_tc, build_upc

from perfbench.loadgen import Operation, closed_loop, open_loop

RACK_SEED = 7

#: requests in the untimed priming pass: a few bursts open loop, then two
#: closed-loop rounds of PRIME_CLIENTS callers
PRIME_CLIENTS = 8
PRIME_CLOSED = 2 * PRIME_CLIENTS

#: the sharded workload re-runs this many requests on a fresh in-process
#: rack and a fresh sharded rack and requires identical modeled results
SHARD_PREFIX = 640


@dataclass
class Stream:
    """Requests plus, per request, what the oracle needs to judge it."""

    ops: List[Operation]
    expect: List[Any]

    def slice(self, begin: int, end: int) -> "Stream":
        return Stream(self.ops[begin:end], self.expect[begin:end])


@dataclass
class Built:
    """One built workload, ready to drive."""

    rack: Any
    prime: Stream
    latency: Stream
    capacity: Stream
    #: ``judge(expect, value) -> bool``: is this returned value correct?
    judge: Callable[[Any, Any], bool]
    #: post-run check returning ``(checked, wrong)``
    sweep: Optional[Callable[[], Tuple[int, int]]] = None
    #: Table 2 mean iterations per request, where the paper gives one
    table2_iterations: Optional[float] = None
    #: True when the rack runs Fig 9's configuration (256 B records)
    fig9_reference: bool = False

    def close(self) -> None:
        self.rack.shutdown()


@dataclass(frozen=True)
class Counts:
    prime_open: int
    latency: int
    warmup: int
    capacity: int

    @property
    def total(self) -> int:
        return self.prime_open + PRIME_CLOSED + self.latency + self.capacity


@dataclass(frozen=True)
class Spec:
    """The fixed definition of one workload."""

    name: str
    #: latency phase: offered load in requests per simulated second
    rate_per_s: float
    #: requests handed to ``submit_many`` per arrival
    burst: int
    #: capacity phase: closed-loop callers
    clients: int
    #: requests per second of ``--seconds``, sized so the two drives take
    #: about ``--seconds`` of host time on the 2-core reference host
    latency_per_s: float
    capacity_per_s: float
    build: Callable[[int, Counts], Built]
    #: OS processes the rack runs in (coordinator + shard workers)
    processes: int = 1

    def counts(self, seconds: float) -> Counts:
        burst = self.burst
        latency = max(10, round(self.latency_per_s * seconds / burst)) * burst
        return Counts(
            prime_open=max(burst, 16),
            latency=latency,
            warmup=latency // 10 // burst * burst,
            capacity=max(2 * self.clients,
                         round(self.capacity_per_s * seconds)))


def _split(ops: List[Operation], expect: List[Any],
           counts: Counts) -> Tuple[Stream, Stream, Stream]:
    whole = Stream(ops, expect)
    a = counts.prime_open + PRIME_CLOSED
    b = a + counts.latency
    return whole.slice(0, a), whole.slice(a, b), whole.slice(b, counts.total)


def _equal(expect, value) -> bool:
    return value == expect


# -- upc_scalar ---------------------------------------------------------------
def build_upc_scalar(seed: int, counts: Counts) -> Built:
    rack = PulseCluster(node_count=1, batch_size=1, seed=RACK_SEED)
    upc = build_upc(rack.memory, 1, requests=counts.total, seed=seed)
    prime, latency, capacity = _split(upc.operations, upc.expected, counts)
    return Built(rack, prime, latency, capacity, _equal,
                 table2_iterations=upc.table2_iterations,
                 fig9_reference=True)


# -- tc_dist ------------------------------------------------------------------
TC_SCAN = 800
TC_FANOUT = 12


def _judge_scan(start, value) -> bool:
    """A scan returns (matches, key checksum) from ``start``; it stops at
    the first leaf boundary at or past TC_SCAN matches."""
    if value is None:
        return False
    matched, checksum = value
    return (TC_SCAN <= matched < TC_SCAN + TC_FANOUT
            and checksum == sum(range(start, start + matched)) % 2**64)


def build_tc_dist(seed: int, counts: Counts) -> Built:
    rack = PulseCluster(node_count=4, seed=RACK_SEED)
    tc = build_tc(rack.memory, 4, fanout=TC_FANOUT, scan_limit=TC_SCAN,
                  requests=counts.total, seed=seed)
    prime, latency, capacity = _split(tc.operations, tc.expected, counts)
    return Built(rack, prime, latency, capacity, _judge_scan,
                 table2_iterations=tc.table2_iterations)


# -- mix_batch / mix_shard ----------------------------------------------------
MIX_CHAIN_NODES = 128
#: chain finds target the last few keys, so every lane walks the chain
MIX_CHAIN_TAIL = 8
MIX_TREE_KEYS = 1024
MIX_BURST = 64
#: every burst carries exactly this many chain finds, in seeded random
#: positions, and tree lookups otherwise.  Chain finds take ~4x as long as
#: tree lookups, so latency is bimodal: an even split would put p50 on the
#: gap between the modes (it read 14.9-37.1 us across ten seeds), and a
#: random split would now and then overflow the 32-lane machine.
MIX_CHAIN_PER_BURST = 24


def _build_mix(seed: int, total: int, node_count: int):
    rack = PulseCluster(node_count=node_count, batch_size=MIX_BURST,
                        batch_lanes=32, seed=RACK_SEED)
    chain = LinkedList(rack.memory)
    for key in range(MIX_CHAIN_NODES):
        chain.append(key, key * 3)
    tree = BPlusTree(rack.memory, fanout=8)
    for key in range(MIX_TREE_KEYS):
        tree.insert(key, key * 5)
    finder, lookup = chain.find_iterator(), tree.lookup_iterator()
    rng = random.Random(f"{seed}:mix")
    ops, expect = [], []
    while len(ops) < total:
        is_chain = ([True] * MIX_CHAIN_PER_BURST
                    + [False] * (MIX_BURST - MIX_CHAIN_PER_BURST))
        rng.shuffle(is_chain)
        for chain_find in is_chain:
            if chain_find:
                key = rng.randrange(MIX_CHAIN_NODES - MIX_CHAIN_TAIL,
                                    MIX_CHAIN_NODES)
                ops.append((finder, (key,)))
                expect.append(key * 3)
            else:
                key = rng.randrange(MIX_TREE_KEYS)
                ops.append((lookup, (key,)))
                expect.append(key * 5)
    return rack, ops[:total], expect[:total]


def build_mix_batch(seed: int, counts: Counts) -> Built:
    rack, ops, expect = _build_mix(seed, counts.total, node_count=1)
    return Built(rack, *_split(ops, expect, counts), _equal)


def _modeled_prefix(seed: int, sharded: bool) -> list:
    """Per-request (value, completion ns) of SHARD_PREFIX requests."""
    spec = SPECS["mix_shard"]
    rack, ops, _ = _build_mix(seed, SHARD_PREFIX, node_count=2)
    try:
        if sharded:
            rack.shard(workers=1)
        drive = open_loop(rack, ops, spec.rate_per_s, spec.burst, 0,
                          random.Random(f"{seed}:prefix"))
    finally:
        rack.shutdown()
    return [(result and result.value, done)
            for result, done in zip(drive.results, drive.done_ns)]


def shard_prefix_mismatches(seed: int) -> Tuple[int, int]:
    in_process = _modeled_prefix(seed, sharded=False)
    sharded = _modeled_prefix(seed, sharded=True)
    wrong = sum(1 for a, b in zip(in_process, sharded) if a != b)
    return SHARD_PREFIX, wrong


def build_mix_shard(seed: int, counts: Counts) -> Built:
    rack, ops, expect = _build_mix(seed, counts.total, node_count=2)
    rack.shard(workers=1)
    return Built(rack, *_split(ops, expect, counts), _equal,
                 sweep=lambda: shard_prefix_mismatches(seed))


# -- kv_rw_durable ------------------------------------------------------------
KV_KEYS = 20_000
KV_CHAIN = 40
KV_NODES = 3


def _kv_initial(key: int) -> bytes:
    return key.to_bytes(8, "little")


def _judge_kv(expect, value) -> bool:
    """A find returns the initial or the single written value of its key;
    an update reports that it found the key."""
    if expect is None:
        return value is True
    return value in expect


def build_kv_rw_durable(seed: int, counts: Counts) -> Built:
    params = DEFAULT_PARAMS.with_overrides(
        durability=DurabilityParams(enabled=True),
        transport=TransportParams(mode="always"))
    rack = PulseCluster(node_count=KV_NODES, params=params, seed=RACK_SEED)
    table = HashTable(rack.memory, buckets=KV_KEYS // KV_CHAIN,
                      value_bytes=8, partition_nodes=KV_NODES)
    for key in range(KV_KEYS):
        table.insert(key, _kv_initial(key))
    finder, updater = table.find_iterator(), table.update_iterator()

    rng = random.Random(f"{seed}:kv")
    fresh = rng.sample(range(KV_KEYS), KV_KEYS)  # each key updated once
    written: Dict[int, bytes] = {}
    ops: List[Operation] = []
    find_keys: List[Optional[int]] = []
    for _ in range(counts.total):
        if rng.random() < 0.5:
            if not fresh:
                raise ValueError("kv_rw_durable updates each key once: "
                                 "--seconds asks for more updates than keys")
            key = fresh.pop()
            value = rng.getrandbits(64) | 1 << 63  # never an initial value
            written[key] = value.to_bytes(8, "little")
            ops.append((updater, (key, value)))
            find_keys.append(None)
        else:
            key = rng.randrange(KV_KEYS)
            ops.append((finder, (key,)))
            find_keys.append(key)
    expect = [None if key is None
              else (_kv_initial(key), written.get(key, _kv_initial(key)))
              for key in find_keys]

    value_offset = table.layout.offset("value")

    def sweep() -> Tuple[int, int]:
        wrong = 0
        for key, addr in table.index_entries():
            stored = rack.memory.read(addr + value_offset, 8)
            wrong += stored != written.get(key, _kv_initial(key))
        return KV_KEYS, wrong

    return Built(rack, *_split(ops, expect, counts), _judge_kv, sweep=sweep)


SPECS: Dict[str, Spec] = {spec.name: spec for spec in (
    Spec("upc_scalar", rate_per_s=550e3, burst=1, clients=64,
         latency_per_s=135, capacity_per_s=72, build=build_upc_scalar),
    Spec("mix_batch", rate_per_s=3e6, burst=MIX_BURST, clients=128,
         latency_per_s=620, capacity_per_s=250, build=build_mix_batch),
    Spec("tc_dist", rate_per_s=500e3, burst=1, clients=64,
         latency_per_s=75, capacity_per_s=25, build=build_tc_dist),
    Spec("kv_rw_durable", rate_per_s=3e6, burst=1, clients=64,
         latency_per_s=360, capacity_per_s=190, build=build_kv_rw_durable),
    Spec("mix_shard", rate_per_s=3e6, burst=MIX_BURST, clients=128,
         latency_per_s=620, capacity_per_s=185, build=build_mix_shard,
         processes=2),
)}


def prime(built: Built, spec: Spec, counts: Counts, seed: int) -> None:
    """One untimed pass over both drivers, so the first timed request is
    not also the first execution of anything."""
    ops = built.prime.ops
    open_loop(built.rack, ops[:counts.prime_open], spec.rate_per_s,
              spec.burst, 0, random.Random(f"{seed}:prime"))
    closed_loop(built.rack, ops[counts.prime_open:], PRIME_CLIENTS)
