#!/usr/bin/env python3
"""Sharded execution: one worker process per memory node.

Builds the same 2-node rack twice and runs the same lookup stream --
once in a single process, once with ``cluster.shard(workers=2)``, which
forks one worker process per memory node and synchronizes them with
conservative lookahead windows over pipes.  The sharded run is
event-for-event identical: same values, same per-request latencies,
same final simulated nanosecond; the per-node counters in the merged
metrics snapshot come from the worker processes that actually simulated
those nodes.

``cluster.shard(workers=N)`` is the one way to shard: build every
structure first, then fork.

Run:  python examples/sharded_cluster.py
"""

from repro import PulseCluster
from repro.structures import LinkedList

KEYS = 32


def build_rack():
    cluster = PulseCluster(node_count=2, seed=11)
    chain = LinkedList(cluster.memory)
    chain.extend([(k, k * k) for k in range(KEYS)])
    return cluster, chain.find_iterator()


def run_stream(cluster, iterator, workers=0):
    if workers:
        cluster.shard(workers=workers)
    pending = [cluster.submit(iterator, k) for k in range(KEYS)]
    try:
        cluster.env.run(
            until=cluster.env.all_of([p._process for p in pending]))
    finally:
        cluster.shutdown()
    return ([p.result for p in pending], cluster.metrics_snapshot(),
            cluster.env.now)


def main() -> None:
    print("=== single process ===")
    base_results, base_snap, base_now = run_stream(*build_rack())
    print(f"  {len(base_results)} lookups, "
          f"end of simulation at {base_now:,.0f} ns")

    print("\n=== cluster.shard(workers=2) ===")
    shard_results, shard_snap, shard_now = run_stream(*build_rack(),
                                                      workers=2)
    print(f"  {len(shard_results)} lookups, "
          f"end of simulation at {shard_now:,.0f} ns")
    for node in (0, 1):
        name = f"mem{node}.acc.requests"
        print(f"  {name}: {shard_snap['counters'][name]} "
              "(merged from the owning worker process)")

    same_values = ([r.value for r in shard_results]
                   == [r.value for r in base_results])
    same_latency = ([r.latency_ns for r in shard_results]
                    == [r.latency_ns for r in base_results])
    print(f"\nvalues identical:    {same_values}")
    print(f"latencies identical: {same_latency}")
    print(f"end time identical:  {shard_now == base_now}")
    assert same_values and same_latency and shard_now == base_now
    assert all(r.ok for r in shard_results)


if __name__ == "__main__":
    main()
