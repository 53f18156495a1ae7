"""Wiring for the placement subsystem: tracker + engine + rebalancer.

:class:`PlacementService` is what :class:`~repro.core.cluster.
PulseCluster` instantiates; it owns the three cooperating parts of
elastic placement.  The cluster's verbs (migrate, drain, rebalance) run
the engine's and the rebalancer's generators as simulation processes.
"""

from __future__ import annotations

from repro.placement.hotness import HotnessTracker
from repro.placement.migration import MigrationEngine
from repro.placement.rebalancer import Rebalancer


class PlacementService:
    """One rack's elastic-placement stack."""

    def __init__(self, env, memory, params, registry, seed: int = 0):
        placement = params.placement  # SystemParams -> PlacementParams
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
