#!/usr/bin/env python3
"""Tracing a distributed traversal, event by event.

Enables the registry's event log and prints the full timeline of one
request that hops across two memory nodes -- the simulated counterpart
of the measurements behind the paper's Fig 9.

Run:  python examples/trace_timeline.py
"""

from repro import PulseCluster
from repro.structures import LinkedList


def main() -> None:
    cluster = PulseCluster(node_count=2, trace=True)

    # A list whose nodes alternate between the two memory nodes: every
    # hop crosses the rack, exercising in-switch re-routing.
    lst = LinkedList(cluster.memory, placement=lambda ordinal: ordinal % 2)
    lst.extend((k, k * 100) for k in range(1, 7))

    result = cluster.run_traversal(lst.find_iterator(), 6)
    print(f"find(6) -> {result.value}  "
          f"({result.iterations} iterations, {result.hops} node hops, "
          f"{result.latency_ns/1000:.1f} us)\n")

    request_id = (0, 1)
    print("timeline:")
    print(cluster.registry.events.render(request_id))

    switch = cluster.metrics_snapshot()["counters"]
    print("\nswitch counters:",
          f"{switch['switch.routed_to_memory']} routed,",
          f"{switch['switch.rerouted_node_to_node']} re-routed,",
          f"{switch['switch.returned_to_client']} returned")


if __name__ == "__main__":
    main()
