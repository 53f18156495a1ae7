#!/usr/bin/env python3
"""Online scale-out: add a memory node under load, watch throughput.

Builds a 2-node rack, saturates it with Zipfian lookups, then calls
``cluster.add_node()`` and lets rebalancing rounds live-migrate segments
onto the new node -- all while requests keep flowing.  Prints the
before/after throughput and where the data ended up.

Run:  python examples/scale_out.py
"""

from repro import PulseCluster
from repro.bench.driver import run_workload
from repro.params import KB, MB, MemoryParams, PlacementParams, SystemParams
from repro.structures import HashTable
from repro.workloads import ZipfianKeyGenerator

KEYS = 4_000
REQUESTS = 256
CONCURRENCY = 64


def build_rack():
    params = SystemParams().with_overrides(
        memory=MemoryParams(node_capacity_bytes=8 * MB),
        placement=PlacementParams(
            segment_bytes=256 * KB,
            migrations_per_round=4,
            fill_imbalance_threshold=0.02,
        ))
    cluster = PulseCluster(node_count=2, params=params, seed=7)
    table = HashTable(cluster.memory, buckets=KEYS // 200,
                      value_bytes=240, partition_nodes=2)
    for key in range(KEYS):
        table.insert(key, key.to_bytes(8, "little") * 30)
    zipf = ZipfianKeyGenerator(list(range(KEYS)), seed=7)
    finder = table.find_iterator()
    operations = [(finder, (zipf.next_key(),)) for _ in range(REQUESTS)]
    return cluster, operations


def fills_of(cluster):
    return " ".join(
        f"mem{n}={frac:5.1%}"
        for n, frac in enumerate(cluster.memory.allocator
                                 .node_fill_fractions()))


def main() -> None:
    cluster, operations = build_rack()

    print("=== 2 nodes, Zipfian YCSB, saturated ===")
    before = run_workload(cluster, operations, concurrency=CONCURRENCY)
    print(f"  throughput {before.throughput_per_s:12,.0f} req/s   "
          f"p99 {before.percentile_latency_ns(99.0) / 1000:6.1f} us")
    print(f"  fill: {fills_of(cluster)}")

    node_id = cluster.add_node()
    print(f"\n=== cluster.add_node() -> mem{node_id}; rebalancing ===")
    moved = 0
    for round_ in range(24):
        proc = cluster.rebalance_once()
        cluster.env.run(until=proc)
        moved += proc.value
        fills = cluster.memory.allocator.node_fill_fractions()
        if proc.value == 0 or max(fills) - min(fills) < 0.02:
            break
    print(f"  {moved / MB:.1f} MB live-migrated onto mem{node_id} "
          f"over {round_ + 1} rounds")
    print(f"  fill: {fills_of(cluster)}")

    print("\n=== 3 nodes, same workload ===")
    after = run_workload(cluster, operations, concurrency=CONCURRENCY)
    print(f"  throughput {after.throughput_per_s:12,.0f} req/s   "
          f"p99 {after.percentile_latency_ns(99.0) / 1000:6.1f} us")
    gain = after.throughput_per_s / before.throughput_per_s
    print(f"\nscale-out throughput gain: {gain:.2f}x "
          f"(faults: {before.faults + after.faults})")
    assert after.faults == 0


if __name__ == "__main__":
    main()
