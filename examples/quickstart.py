#!/usr/bin/env python3
"""Quickstart: your first offloaded pointer traversal.

Builds a two-memory-node pulse rack, puts a hash table in disaggregated
memory, and runs lookups through the full simulated pipeline -- client
DPDK stack, programmable switch, accelerator network stack, scheduler,
and the decoupled memory/logic pipelines.

Run:  python examples/quickstart.py
"""

from repro import PulseCluster
from repro.structures import HashTable


def main() -> None:
    # A rack with one CPU node, a programmable switch, and two memory
    # nodes fronted by pulse accelerators.
    cluster = PulseCluster(node_count=2)

    # A chained hash table laid out in rack memory; buckets are
    # partitioned across the two nodes by key (so lookups never cross
    # nodes -- the paper's UPC configuration).
    table = HashTable(cluster.memory, buckets=64, value_bytes=16,
                      partition_nodes=2)
    for key in range(1_000):
        table.insert(key, f"user-{key:06d}".encode())

    finder = table.find_iterator()

    # What did the offload engine decide about this kernel?
    decision = cluster.engines[0].decide(finder.program)
    analysis = decision.analysis
    print("kernel:", finder.program.name)
    print(f"  instructions per iteration : {analysis.recurring_instructions}")
    print(f"  aggregated LOAD window     : {analysis.load_bytes} B")
    print(f"  t_c = {analysis.t_c_ns:.1f} ns, t_d = {analysis.t_d_ns:.1f} ns,"
          f" eta = {analysis.eta:.3f}")
    print(f"  offloaded to accelerator   : {decision.offload}")
    print()

    # Run a few traversals through the simulated rack.
    for key in (7, 500, 999, 123_456):
        result = cluster.run_traversal(finder, key)
        value = result.value.rstrip(b"\0") if result.value else None
        print(f"find({key:>6}) -> {str(value):24s} "
              f"{result.iterations:3d} iterations, "
              f"{result.latency_ns / 1000:6.1f} us")

    print()
    print("accelerator stats (node 0):")
    # The metrics snapshot works in every execution mode -- including
    # after cluster.shard(workers=<n>), where node 0 lives in a worker
    # process and the snapshot merges its counters back in.
    counters = cluster.metrics_snapshot()["counters"]
    print(f"  requests handled : {counters['mem0.acc.requests']}")
    print(f"  iterations run   : {counters['mem0.acc.iterations']}")
    print(f"  bytes loaded     : {counters['mem0.acc.bytes_loaded']}")
    cluster.shutdown()


if __name__ == "__main__":
    main()
