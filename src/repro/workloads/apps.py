"""Application builders for UPC, TC, and TSV (section 7, Table 2).

Each builder populates a data structure in rack memory and produces the
operation stream the figures replay.  Scale: the paper's 0.5-billion-pair
datasets do not fit a Python simulation; the builders preserve the
quantities performance depends on -- traversal lengths (chain length,
scan size, aggregation window), record sizes (8 B keys, 240 B values),
and the cache:data size ratio -- at reduced population (DESIGN.md,
substitution table).

Placement defaults reproduce the paper's distributed behaviour:

* UPC partitions bucket chains by key across nodes, so multi-node UPC
  never crosses nodes mid-traversal (Table 2 "partitionable").
* TC/TSV trees use glibc-style interleaved allocation, calibrated (block
  size 3) so that 30-40% of pointer hops cross nodes on two nodes --
  the fraction section 7.1 reports.  ``partitioned=True`` switches to
  key-range partitioning (Supp Fig 2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from repro.mem.node import GlobalMemory
from repro.structures.btree import BPlusTree
from repro.structures.hashtable import HashTable
from repro.workloads.upmu import (
    SAMPLE_PERIOD_US,
    generate_upmu_trace,
)
from repro.workloads.ycsb import UniformKeyGenerator

#: TSV window sizes evaluated in the paper (seconds)
TSV_WINDOWS_S = (7.5, 15.0, 30.0, 60.0)

#: glibc-style interleaving granularity: consecutive same-size
#: allocations that land on one node before moving on; calibrated so
#: ~1/3 of leaf hops cross nodes on two nodes (section 7.1: 30-40%)
DEFAULT_INTERLEAVE_BLOCK = 3

#: a TC message's out-of-line record (the paper's value size) and a TSV
#: reading's full multi-channel frame, bytes
TC_RECORD_BYTES = 240
TSV_RECORD_BYTES = 128


@dataclass
class Workload:
    """A built application plus its replayable operation stream."""

    name: str
    operations: List[Tuple[Any, tuple]]
    #: Table 2 reference value for this workload
    table2_iterations: Optional[float] = None
    expected: List[Any] = field(default_factory=list, repr=False)


def _interleaved(node_count: int,
                 block: int = DEFAULT_INTERLEAVE_BLOCK
                 ) -> Callable[[int], int]:
    def placement(ordinal: int) -> int:
        return (ordinal // block) % node_count
    return placement


def _key_partitioned(node_count: int, max_key: int
                     ) -> Callable[[int], int]:
    span = max(1, (max_key + 1))

    def placement(min_key: int) -> int:
        return min(node_count - 1, min_key * node_count // span)
    return placement


# ---------------------------------------------------------------------------
# UPC: user profile cache (YCSB-C on a hash table)
# ---------------------------------------------------------------------------
def build_upc(memory: GlobalMemory, node_count: int,
              num_pairs: int = 20_000, chain_length: int = 200,
              value_bytes: int = 240, requests: int = 200,
              seed: int = 0) -> Workload:
    """Uniform key lookups over long hash chains.

    ``chain_length`` ~ 200 reproduces Table 2's ~100 average iterations
    (uniform hits land mid-chain); the paper's footnote notes the load
    factor was deliberately high to force long traversals.
    """
    buckets = max(1, num_pairs // chain_length)
    table = HashTable(memory, buckets=buckets, value_bytes=value_bytes,
                      partition_nodes=node_count)

    def value_of(key: int) -> bytes:
        return key.to_bytes(8, "little") * (value_bytes // 8)

    for key in range(num_pairs):
        table.insert(key, value_of(key))

    finder = table.find_iterator()
    generator = UniformKeyGenerator(list(range(num_pairs)), seed=seed)
    operations = []
    expected = []
    for _ in range(requests):
        key = generator.next_key()
        operations.append((finder, (key,)))
        expected.append(value_of(key))

    return Workload(
        name="UPC",
        operations=operations,
        table2_iterations=100,
        expected=expected,
    )


# ---------------------------------------------------------------------------
# TC: threaded conversations (YCSB-E scans on a B+Tree)
# ---------------------------------------------------------------------------
def build_tc(memory: GlobalMemory, node_count: int,
             num_pairs: int = 40_000, fanout: int = 12,
             scan_limit: int = 800, requests: int = 200,
             seed: int = 0, partitioned: bool = False,
             interleave: int = DEFAULT_INTERLEAVE_BLOCK) -> Workload:
    """Range scans of ~``scan_limit`` messages per conversation thread.

    scan_limit 800 at fanout 12 yields ~70 leaf visits plus the descent:
    Table 2's 75 average iterations.  The offloaded scan returns match
    count + key checksum (see BTreeScanCount for the scratch-pad-bounded
    adaptation of YCSB-E's record payloads).  Each message's 240 B record
    (the paper's value size) is allocated interleaved with the leaves, as
    a grown index sits in memory.
    """
    keys = list(range(num_pairs))
    if partitioned:
        tree = BPlusTree(memory, fanout=fanout,
                         key_placement=_key_partitioned(
                             node_count, num_pairs - 1))
    else:
        tree = BPlusTree(memory, fanout=fanout,
                         placement=_interleaved(node_count, interleave))

    def allocate_records(chunk, preferred_node):
        # Leaf values become pointers to the out-of-line records.
        return [memory.alloc(TC_RECORD_BYTES, preferred_node=preferred_node)
                for _ in chunk]

    tree.bulk_load([(k, 0) for k in keys], leaf_hook=allocate_records)

    scanner = tree.scan_count_iterator(limit=scan_limit)
    rng = random.Random(seed)
    max_start = max(1, num_pairs - scan_limit)
    operations = []
    expected = []
    for _ in range(requests):
        start = rng.randrange(max_start)
        operations.append((scanner, (start,)))
        expected.append(start)

    return Workload(
        name="TC",
        operations=operations,
        table2_iterations=75,
        expected=expected,
    )


# ---------------------------------------------------------------------------
# TSV: time-series visualization (windowed aggregation on uPMU data)
# ---------------------------------------------------------------------------
def build_tsv(memory: GlobalMemory, node_count: int,
              window_s: float = 7.5, duration_s: float = 600.0,
              fanout: int = 9, requests: int = 200, seed: int = 0,
              partitioned: bool = False,
              interleave: int = DEFAULT_INTERLEAVE_BLOCK) -> Workload:
    """Aggregations (sum/avg/min/max, chosen per request) over
    ``window_s``-second windows of a synthetic uPMU voltage trace.

    At the 50 Hz effective rate, windows of 7.5/15/30/60 s cover
    375/750/1500/3000 samples; with fanout-9 leaves that is ~44/87/
    170/340 iterations -- Table 2's ladder.  The aggregated channel lives
    inline in the leaves (the accelerator's ALU needs it); the full
    multi-channel reading (~128 B: a C37.118-style frame with several
    phasors plus quality metadata) is allocated alongside, so the on-disk
    layout -- and the paging baseline's locality -- matches a real
    ingest.
    """
    if window_s >= duration_s:
        raise ValueError("window must be shorter than the trace")
    trace = generate_upmu_trace(duration_s, seed=seed)
    max_ts = trace[-1][0]
    if partitioned:
        tree = BPlusTree(memory, fanout=fanout,
                         key_placement=_key_partitioned(
                             node_count, max_ts))
    else:
        tree = BPlusTree(memory, fanout=fanout,
                         placement=_interleaved(node_count, interleave))

    def allocate_records(chunk, preferred_node):
        for _ in chunk:
            memory.alloc(TSV_RECORD_BYTES, preferred_node=preferred_node)
        return None  # inline values stay -- the kernel aggregates them

    tree.bulk_load(trace, leaf_hook=allocate_records)

    aggregators = {op: tree.aggregate_iterator(op)
                   for op in ("sum", "avg", "min", "max")}
    rng = random.Random(seed + 1)
    window_us = int(window_s * 1e6)
    latest_start = max_ts - window_us
    operations = []
    expected = []
    values = [v for _, v in trace]
    first_ts = trace[0][0]
    samples_per_window = window_us // SAMPLE_PERIOD_US
    for _ in range(requests):
        # Align starts to sample boundaries for clean reference answers.
        start_index = rng.randrange(
            max(1, latest_start // SAMPLE_PERIOD_US))
        t0 = first_ts + start_index * SAMPLE_PERIOD_US
        t1 = t0 + window_us
        op = rng.choice(("sum", "avg", "min", "max"))
        operations.append((aggregators[op], (t0, t1)))
        window_values = values[start_index:start_index
                               + samples_per_window]
        if not window_values:
            expected.append(None)
        elif op == "sum":
            expected.append(sum(window_values))
        elif op == "avg":
            expected.append(sum(window_values) / len(window_values))
        elif op == "min":
            expected.append(min(window_values))
        else:
            expected.append(max(window_values))

    return Workload(
        name=f"TSV-{window_s:g}s",
        operations=operations,
        table2_iterations={7.5: 44, 15.0: 87, 30.0: 165,
                           60.0: 320}.get(window_s),
        expected=expected,
    )

