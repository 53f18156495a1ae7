"""Scaffolding shared by the baseline systems, and the backend protocol.

:class:`TraversalBackend` is the narrow structural interface every
compared system -- :class:`~repro.core.cluster.PulseCluster` and all
three baselines -- satisfies, so the bench driver (closed loop *and*
the open-loop Poisson generator) dispatches through one protocol
instead of per-system special cases.
"""

from __future__ import annotations

import math
from typing import (Any, Dict, Optional, Protocol, Sequence, Tuple,
                    runtime_checkable)

from repro.core.client import PendingTraversal
from repro.mem.allocator import PlacementPolicy
from repro.mem.node import GlobalMemory
from repro.obs.metrics import MetricsRegistry
from repro.params import DEFAULT_PARAMS, CpuParams, SystemParams
from repro.sim.engine import Environment
from repro.sim.network import Fabric
from repro.transport import TransportSession


@runtime_checkable
class TraversalBackend(Protocol):
    """What the bench driver needs from any compared system.

    ``submit`` is the async path (returns a
    :class:`~repro.core.client.PendingTraversal` immediately);
    ``traverse`` is the closed-loop process interface; the remaining
    methods are the measurement contract.  The protocol is structural:
    systems implement it by shape, no inheritance required.
    """

    env: Environment

    def submit(self, iterator: Any, *args) -> PendingTraversal:
        """Issue one traversal asynchronously."""
        ...

    def submit_many(self, requests: Sequence[Tuple[Any, tuple]]
                    ) -> "list[PendingTraversal]":
        """Issue a burst of traversals in one call (the batch seam).

        The primary submission path: systems with a batching front end
        (pulse's doorbell batcher feeding the accelerator's lane groups)
        coalesce the whole burst; systems without one fall back to a
        scalar loop over :meth:`submit`.
        """
        ...

    def traverse(self, iterator: Any, *args):
        """Process: run one traversal; returns a TraversalResult."""
        ...

    def run_workload(self, operations: Sequence[Tuple[Any, tuple]],
                     concurrency: int = 8, warmup: int = 0):
        """Closed-loop drive of an operation list; returns WorkloadStats."""
        ...

    def begin_measurement(self) -> None:
        """Reset metrics/byte windows at the start of measurement."""
        ...

    def metrics_snapshot(self) -> Dict:
        """One JSON-able export of every metric in the system."""
        ...

    def reset_counters(self) -> None:
        """Zero memory-access counters and registry metrics."""
        ...

    def load_index(self, structure) -> int:
        """Bulk-prime any client-resident split index (may be a no-op)."""
        ...


class BaselineSystem:
    """Environment + fabric + rack memory, without pulse hardware.

    Every baseline shares the pulse cluster's observability contract: a
    single :class:`~repro.obs.metrics.MetricsRegistry` carrying the
    fabric's byte counters, the memory nodes' DRAM gauges, and the
    system-wide ``request.latency_ns`` histogram, so one ``snapshot()``
    compares all five systems.
    """

    def __init__(self, node_count: int = 1,
                 params: Optional[SystemParams] = None,
                 policy: PlacementPolicy = PlacementPolicy.UNIFORM,
                 node_capacity: Optional[int] = None,
                 seed: int = 0):
        self.params = params if params is not None else DEFAULT_PARAMS
        self.env = Environment()
        self.registry = MetricsRegistry(clock=lambda: self.env.now)
        self.fabric = Fabric(self.env, self.params.network, seed=seed,
                             registry=self.registry)
        capacity = (node_capacity if node_capacity is not None
                    else self.params.memory.node_capacity_bytes)
        self.memory = GlobalMemory(node_count, capacity, policy)
        for node in self.memory.nodes:
            node.attach_metrics(self.registry, clock=lambda: self.env.now)
        self._latency = self.registry.histogram("request.latency_ns")
        self._m_traversals = self.registry.counter(
            "client0.client.traversals")
        self._m_result_faults = self.registry.counter(
            "client0.client.faults")

    @property
    def node_count(self) -> int:
        return self.memory.node_count

    def make_session(self, name: str,
                     default_segments: int = 2) -> TransportSession:
        """One reliable-transport stack instance for a named endpoint.

        Baselines talk host-to-host (two wire segments through the
        implicit switch), and share the same per-hop ack/retransmit
        stack as pulse -- the transport is system-agnostic, so the
        goodput-vs-loss comparison isolates the *architectural*
        differences rather than who has a retry loop.
        """
        return TransportSession(self.env, self.fabric, name,
                                params=self.params.transport,
                                registry=self.registry,
                                default_segments=default_segments)

    # -- TraversalBackend protocol ------------------------------------------
    def submit(self, iterator, *args) -> PendingTraversal:
        """Issue one traversal asynchronously; returns immediately.

        Baselines have no doorbell batcher -- each submission simply runs
        its (generator) ``traverse`` as an independent process, which is
        exactly how these systems take concurrent load.
        """
        process = self.env.process(self.traverse(iterator, *args))
        return PendingTraversal(self.env, process)

    def submit_many(self, requests) -> list:
        """Default scalar fallback: one independent process per request.

        Baselines have no batching hardware, so a burst is just N
        concurrent submissions starting at the same simulated instant.
        """
        return [self.submit(iterator, *args)
                for iterator, args in requests]

    def traverse(self, iterator, *args):
        raise NotImplementedError  # each baseline implements its model

    def run_workload(self, operations, concurrency: int = 8,
                     warmup: int = 0):
        from repro.bench.driver import run_workload
        return run_workload(self, operations, concurrency, warmup)

    def network_bandwidth_utilization(self, duration_ns: float) -> float:
        """The client link's utilization (``self.client`` is the CPU
        node's endpoint, set by each baseline), for Fig 6."""
        if duration_ns <= 0:
            return 0.0
        counter = self.registry.counter
        peak = max(counter(f"net.{self.client.name}.tx_bytes").value,
                   counter(f"net.{self.client.name}.rx_bytes").value)
        return peak / (duration_ns * self.params.network.link_bytes_per_ns)

    def begin_measurement(self) -> None:
        """Reset metrics + byte windows for the post-warmup window."""
        self.registry.reset()
        self.fabric.begin_window()

    def metrics_snapshot(self) -> dict:
        """One JSON-able export of every metric in the system."""
        return self.registry.snapshot()

    def reset_counters(self) -> None:
        self.memory.reset_counters()
        self.registry.reset()

    def load_index(self, structure) -> int:
        """Baselines have no client-resident split index: a no-op."""
        return 0

    def _record_result(self, result) -> None:
        """Account one finished traversal in the registry."""
        self._m_traversals.inc()
        if not result.ok:
            self._m_result_faults.inc()
        self._latency.record(result.latency_ns)


def workers_to_saturate(cpu: CpuParams, bandwidth_bytes_per_ns: float,
                        window_bytes: int = 256,
                        instructions_per_iteration: int = 20) -> int:
    """Minimum memory-node workers that saturate the bandwidth cap.

    Section 7: "we employ the minimum number of memory-node workers that
    can saturate the memory bandwidth" -- important for the energy
    comparison, where idle workers would burn power for nothing.  One
    worker streams ``window_bytes`` per iteration and each iteration
    costs a DRAM access plus its compute.
    """
    iteration_ns = (cpu.memory_access_ns(window_bytes)
                    + instructions_per_iteration * cpu.instruction_ns())
    per_worker = window_bytes / iteration_ns
    return max(1, math.ceil(bandwidth_bytes_per_ns / per_worker))
