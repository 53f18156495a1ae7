"""Wiring for the placement subsystem: tracker + engine + rebalancer.

:class:`PlacementService` is what :class:`~repro.core.cluster.
PulseCluster` instantiates; it owns the three cooperating parts of
elastic placement and exposes the cluster-facing verbs (migrate, drain,
rebalance) as simulation processes.
"""

from __future__ import annotations

from repro.placement.hotness import HotnessTracker
from repro.placement.migration import MigrationEngine
from repro.placement.rebalancer import Rebalancer


class PlacementService:
    """One rack's elastic-placement stack."""

    def __init__(self, env, memory, params, registry, seed: int = 0):
        placement = params.placement  # SystemParams -> PlacementParams
        self.env = env
        self.memory = memory
        self.params = placement
        self.registry = registry
        self.rangemap = memory.placement
        self.tracker = HotnessTracker(
            segment_bytes=placement.segment_bytes,
            halflife_ns=placement.hot_halflife_ns,
            clock=lambda: env.now,
            sample_period=placement.sample_period,
            seed=seed)
        self.engine = MigrationEngine(env, memory, placement,
                                      registry=registry)
        self.rebalancer = Rebalancer(env, self.engine, self.tracker,
                                     placement, registry=registry)
        self.tracker.attach_metrics(registry)
        for node_id in range(memory.node_count):
            self._register_heat_gauge(node_id)

    def _register_heat_gauge(self, node_id: int) -> None:
        self.registry.gauge(
            f"placement.hot.mem{node_id}",
            fn=lambda: self.tracker.node_heat(self.rangemap)
                           .get(node_id, 0.0))

    def on_node_added(self, node_id: int) -> None:
        self._register_heat_gauge(node_id)

    # -- cluster-facing verbs ------------------------------------------------
    def migrate(self, virt_start: int, virt_end: int, dst: int):
        """Launch a live migration; returns the simulation process."""
        return self.env.process(
            self.engine.migrate(virt_start, virt_end, dst))

    def drain_node(self, node_id: int):
        """Launch a drain of ``node_id``; returns the simulation process."""
        return self.env.process(self.engine.drain(node_id))

    def rebalance_once(self):
        """Run one observe-decide-migrate round as a process."""
        return self.env.process(self.rebalancer.rebalance_once())

    def start_rebalancer(self) -> None:
        self.rebalancer.start()

    def stop_rebalancer(self) -> None:
        self.rebalancer.stop()
