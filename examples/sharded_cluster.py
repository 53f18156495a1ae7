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
structure first, then fork.  A sharded rack is perturbed only through
``shard(replicated=...)``: each factory starts identically in every
replica at the fork, and ``runtime.replicated_procs`` are this
process's copies.  The last run migrates node 0's first range to node 1
mid-stream that way, and must still match the in-process run.

Run:  python examples/sharded_cluster.py
"""

from repro import PulseCluster
from repro.structures import LinkedList

KEYS = 32
MIGRATE_AT_NS = 2_000.0


def build_rack():
    cluster = PulseCluster(node_count=2, seed=11)
    chain = LinkedList(cluster.memory)
    chain.extend([(k, k * k) for k in range(KEYS)])
    return cluster, chain.find_iterator()


def migrate_first_range(cluster):
    """A perturbation factory: live-migrate node 0's first range to
    node 1 while the lookups run."""
    yield cluster.env.timeout(MIGRATE_AT_NS)
    start, end = cluster.memory.placement.rules_of(0)[0]
    yield cluster.env.process(cluster.migration.migrate(start, end, 1))


def run_stream(cluster, iterator, workers=0, perturbations=()):
    if workers:
        background = cluster.shard(
            workers=workers, replicated=perturbations).replicated_procs
    else:
        background = [cluster.env.process(factory(cluster))
                      for factory in perturbations]
    pending = [cluster.submit(iterator, k) for k in range(KEYS)]
    try:
        cluster.env.run(until=cluster.env.all_of(
            [p._process for p in pending] + background))
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

    print("\n=== a migration mid-stream, in process and replicated ===")
    moved = [run_stream(*build_rack(), workers=workers,
                        perturbations=(migrate_first_range,))
             for workers in (0, 2)]
    (local, _, local_now), (sharded, sharded_snap, sharded_now) = moved
    print(f"  placement.migrations: "
          f"{sharded_snap['counters']['placement.migrations']}")
    identical = ([(r.value, r.latency_ns) for r in sharded]
                 == [(r.value, r.latency_ns) for r in local]
                 and sharded_now == local_now)
    print(f"  sharded run identical to in-process: {identical}")
    assert identical and all(r.ok for r in sharded)


if __name__ == "__main__":
    main()
