"""Rack assembly: wire the client, switch, memory nodes, and accelerators.

:class:`PulseCluster` is the top-level entry point of the library::

    cluster = PulseCluster(node_count=2)
    table = HashTable(cluster.memory, buckets=1024)   # built functionally
    table.insert(42, b"value")
    result = cluster.run_traversal(table.find_iterator(), 42)

Data structures are built directly against :class:`~repro.mem.node.
GlobalMemory` (zero simulated time -- setup is not what the paper
measures); traversals then run through the full timed pipeline: client
DPDK stack -> switch routing -> accelerator netstack/scheduler/pipelines
-> (possible in-switch re-routes) -> back to the client.

:class:`Rack` is what pulse and the baselines of ``repro.baselines``
share: the assembled rack and the measurement contract.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.bench.driver import WorkloadStats, run_workload
from repro.core.accelerator import Accelerator
from repro.core.client import PendingTraversal, PulseClient
from repro.core.iterator import PulseIterator, TraversalResult
from repro.core.offload import OffloadEngine
from repro.core.switch import PulseSwitch
from repro.durability import DurabilityError, DurabilityService
from repro.index import SplitIndexDirectory
from repro.mem.allocator import PlacementPolicy
from repro.mem.node import GlobalMemory
from repro.obs.metrics import MetricError, MetricsRegistry
from repro.params import DEFAULT_PARAMS, SystemParams
from repro.placement.service import PlacementService
from repro.shard.runtime import ShardError, ShardedRuntime
from repro.sim.engine import Environment
from repro.sim.network import Fabric


class Rack:
    """A simulated rack: the one base of the five compared systems.

    It assembles what every system has -- ``params``, the event loop
    ``env``, one :class:`~repro.obs.metrics.MetricsRegistry` (the only
    observability surface, and the holder of the one measurement
    window), the ``fabric`` and the rack's
    :class:`~repro.mem.node.GlobalMemory` -- and is the contract the
    bench drivers (``run_workload``, ``run_open_loop``, ``run_cell``)
    drive every system through:

    * ``traverse(iterator, *args)`` -- a process running one traversal
      to its :class:`~repro.core.iterator.TraversalResult`; the method
      each system implements.
    * ``submit`` / ``submit_many`` -- asynchronous issue, one
      :class:`~repro.core.client.PendingTraversal` per traversal; here
      one process per ``traverse``, and a burst is a loop of them.
    * ``begin_measurement`` -- open the post-warmup window: the
      registry resets every metric and stamps ``window_start``; the
      drivers' ``duration_ns`` is ``registry.window_ns``.
    * ``metrics_snapshot`` -- the JSON-able export of every metric.
    * ``memory_bandwidth_utilization`` -- mean over nodes of the bytes
      each served (the registry counter ``<node>.<served_bytes>``) per
      ns of the window, against the per-node bandwidth cap.
    * ``network_bandwidth_utilization`` -- the busiest link among the
      CPU-node endpoints ``client_names``, over the same window.
    * ``workers_per_node`` -- the serving cores the energy model
      charges per node.
    """

    #: per-node registry counter of the bytes a memory node served
    served_bytes = "acc.bytes_loaded"
    #: the CPU-node endpoints on the fabric
    client_names: Tuple[str, ...] = ("client0",)
    #: serving cores per node, as the energy model charges them
    workers_per_node = 1
    #: range-translation entries per memory node
    tcam_capacity = 1024

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
        self.memory = GlobalMemory(node_count, capacity, policy,
                                   self.tcam_capacity)

    @property
    def node_count(self) -> int:
        return self.memory.node_count

    # -- running work -----------------------------------------------------------
    def traverse(self, iterator: PulseIterator, *args):
        """Process: run one traversal; returns its TraversalResult."""
        raise NotImplementedError

    def submit(self, iterator: PulseIterator, *args) -> PendingTraversal:
        """Issue one traversal asynchronously; returns immediately."""
        process = self.env.process(self.traverse(iterator, *args))
        return PendingTraversal(self.env, process)

    def submit_many(self, requests: Sequence[Tuple[PulseIterator, tuple]]
                    ) -> List[PendingTraversal]:
        """Issue a burst of traversals, all at this simulated instant."""
        return [self.submit(iterator, *args)
                for iterator, args in requests]

    def run_traversal(self, iterator: PulseIterator,
                      *args) -> TraversalResult:
        """Convenience: run one traversal to completion synchronously."""
        return self.env.run(
            until=self.env.process(self.traverse(iterator, *args)))

    def run_workload(self, operations: Sequence[Tuple[PulseIterator, tuple]],
                     concurrency: int = 8,
                     warmup: int = 0) -> WorkloadStats:
        return run_workload(self, operations, concurrency, warmup)

    def load_index(self, structure) -> int:
        """Bulk-prime a client-resident split index; none here: 0."""
        return 0

    # -- observability ------------------------------------------------------------
    def begin_measurement(self) -> None:
        """Open the post-warmup window (see the class docstring)."""
        self.registry.reset()

    def metrics_snapshot(self) -> dict:
        """One JSON-able export of every metric in the rack."""
        return self.registry.snapshot()

    def memory_bandwidth_utilization(self) -> float:
        """Mean fraction of the per-node bandwidth cap used over the
        registry's window, for Fig 6.

        Raises :class:`~repro.obs.metrics.MetricError` when a node has
        no ``served_bytes`` counter, rather than reading a fresh zero.
        """
        registered = set(self.registry.names())
        counters = []
        for node in self.memory.nodes:
            name = f"{node.name}.{self.served_bytes}"
            if name not in registered:
                raise MetricError(
                    f"{type(self).__name__} registers no counter {name!r}")
            counters.append(self.registry.counter(name))
        window = self.registry.window_ns
        if window <= 0:
            return 0.0
        cap = self.params.memory.bandwidth_bytes_per_ns
        return sum(c.value / window / cap for c in counters) / len(counters)

    def network_bandwidth_utilization(self) -> float:
        """Busiest CPU-node link's utilization over the registry's
        window, for Fig 6."""
        window = self.registry.window_ns
        if window <= 0:
            return 0.0
        counter = self.registry.counter
        peak_bytes = max(
            max(counter(f"net.{name}.tx_bytes").value,
                counter(f"net.{name}.rx_bytes").value)
            for name in self.client_names)
        return peak_bytes / (window * self.params.network.link_bytes_per_ns)


class PulseCluster(Rack):
    """A simulated rack running pulse."""

    def __init__(self, node_count: int = 1,
                 params: Optional[SystemParams] = None,
                 policy: PlacementPolicy = PlacementPolicy.UNIFORM,
                 node_capacity: Optional[int] = None,
                 bounce_to_client: bool = False,
                 cores_per_accelerator: Optional[int] = None,
                 shared_interconnect: bool = True,
                 split_loads: bool = False,
                 scheduler_policy: str = "fifo",
                 batch_lanes: Optional[int] = None,
                 tcam_capacity: int = 1024,
                 client_count: int = 1,
                 client_table_capacity: Optional[int] = None,
                 batch_size: int = 1,
                 flush_ns: Optional[float] = None,
                 trace: bool = False,
                 seed: int = 0,
                 split_index: bool = False,
                 split_index_invalidate: bool = True):
        self.tcam_capacity = tcam_capacity
        super().__init__(node_count, params, policy, node_capacity, seed)
        if trace:
            self.registry.enable_events()
        self.memory.allocator.attach_metrics(self.registry)
        switch_kwargs = {}
        if client_table_capacity is not None:
            switch_kwargs["client_table_capacity"] = client_table_capacity
        self.switch = PulseSwitch(self.env, self.fabric,
                                  self.memory.placement, self.params,
                                  bounce_to_client=bounce_to_client,
                                  registry=self.registry,
                                  **switch_kwargs)
        #: elastic placement: hotness tracking, live migration, and the
        #: rebalancer control loop (see docs/architecture.md)
        self.placement = PlacementService(self.env, self.memory,
                                          self.params, self.registry,
                                          seed=seed)
        #: accelerator construction options, reused by :meth:`add_node`
        #: so late-joining nodes match the rest of the rack
        self._acc_options = dict(cores=cores_per_accelerator,
                                 shared_interconnect=shared_interconnect,
                                 split_loads=split_loads,
                                 scheduler_policy=scheduler_policy,
                                 batch_lanes=batch_lanes)
        self.accelerators: List[Accelerator] = [
            self._accelerator(node) for node in self.memory.nodes]
        #: replicated redo logging + crash recovery (None when the
        #: ``params.durability.enabled`` knob is off -- the default, so
        #: a durability-free rack pays nothing)
        self.durability: Optional[DurabilityService] = None
        if self.params.durability.enabled:
            self.durability = DurabilityService(self.env, self.memory,
                                                self.params, self.registry)
            self.memory.durability = self.durability
            for acc in self.accelerators:
                self.durability.attach_accelerator(acc)
            self.durability.switch = self.switch
        if client_count < 1:
            raise ValueError("need at least one CPU node")
        self.engines: List[OffloadEngine] = [
            OffloadEngine(self.params.accelerator, client_id=i)
            for i in range(client_count)
        ]
        #: per-client split-index directories (empty when disabled);
        #: cluster-wide hit/miss/NACK counters live under ``index.*``
        self.indexes: List[SplitIndexDirectory] = []
        if split_index:
            for i in range(client_count):
                directory = SplitIndexDirectory(
                    registry=self.registry, name=f"client{i}",
                    invalidate_on_move=split_index_invalidate)
                self.memory.placement.subscribe(directory.on_move)
                self.indexes.append(directory)
        self.clients: List[PulseClient] = [
            PulseClient(self.env, self.fabric, self.params,
                        self.engines[i], self.memory,
                        name=f"client{i}", batch_size=batch_size,
                        flush_ns=flush_ns, registry=self.registry,
                        index=(self.indexes[i] if split_index else None))
            for i in range(client_count)
        ]
        self.client_names = tuple(client.name for client in self.clients)
        self._next_client = 0
        #: worker processes attached by :meth:`shard` (None = classic
        #: in-process execution)
        self.runtime: Optional[ShardedRuntime] = None

    def _accelerator(self, node) -> Accelerator:
        """The accelerator in front of ``node``: it routes misses by the
        live placement map and samples into the node's own hotness view
        (a private RNG stream, so a sharded worker running only its own
        nodes draws the skips the in-process run draws)."""
        return Accelerator(
            self.env, node, self.fabric, self.params, self.memory.placement,
            self.placement.tracker.node_view(node.node_id),
            registry=self.registry, **self._acc_options)

    @property
    def sharded(self) -> bool:
        """True while worker processes are attached to this cluster."""
        return self.runtime is not None and self.runtime._started \
            and not self.runtime._stopped

    # -- sharded execution --------------------------------------------------------
    def shard(self, workers: Optional[int] = None,
              replicated: Sequence = ()) -> ShardedRuntime:
        """Fork one worker process per shard and start the lookahead sync.

        Build every data structure *before* calling this: the workers
        are copy-on-write replicas of the cluster as it exists at the
        fork.  ``replicated`` process factories (``factory(cluster) ->
        generator``) are started identically in every replica -- the
        hook deterministic background load (e.g. a migration storm)
        uses to run in lockstep across processes.  Call
        :meth:`shutdown` (or ``runtime.stop()``) when done.
        """
        if self.sharded:
            raise ShardError("cluster is already sharded")
        self.runtime = ShardedRuntime(self, workers, replicated=replicated)
        return self.runtime.start()

    def shutdown(self) -> None:
        """Stop worker processes (no-op for in-process clusters)."""
        if self.runtime is not None:
            self.runtime.stop()

    def _forbid_sharded(self, operation: str) -> None:
        if self.sharded:
            raise ShardError(
                f"{operation} is not supported while sharded: membership "
                "is fixed at the fork, and a perturbation runs in every "
                "replica as a shard(replicated=...) factory")

    # -- cluster membership -------------------------------------------------------
    def add_node(self) -> int:
        """Scale out: bring one empty memory node online.

        Grows the virtual address space, boots a memory node plus its
        accelerator, installs the node's (initially empty-of-data) range
        rule in the shared placement map, and makes the allocator and
        rebalancer aware of it.  Returns the new node id.  The node
        starts cold; call :meth:`rebalance_once` (or leave the
        rebalancer running) to shift load onto it.
        """
        self._forbid_sharded("add_node")
        node = self.memory.add_node()
        acc = self._accelerator(node)
        self.accelerators.append(acc)
        self.placement.on_node_added(node.node_id)
        if self.durability is not None:
            self.durability.on_node_added(node.node_id)
            self.durability.attach_accelerator(acc)
        return node.node_id

    def kill_node(self, node_id: int) -> None:
        """Crash one memory node at the current simulated instant.

        The node's accelerator stops receiving, its transmissions
        vanish at the NIC, and its DRAM contents are considered lost;
        the durability subsystem's :class:`~repro.durability.recovery.
        RecoveryManager` then re-homes its ranges onto elected replica
        owners and replays the redo log.  Requires
        ``params.durability.enabled`` -- without replicated logs a crash
        would silently lose acknowledged writes, which this simulator
        refuses to model as a supported operation.

        A sharded rack crashes a node through a
        :class:`~repro.durability.recovery.CrashInjector` passed as a
        replicated factory to :meth:`shard`.
        """
        self._forbid_sharded("kill_node")
        self._kill_node_local(node_id)

    def _kill_node_local(self, node_id: int) -> None:
        """Apply the crash in this process (see :meth:`kill_node`);
        every replica of a sharded rack runs it at the same instant."""
        if self.durability is None:
            raise DurabilityError(
                "kill_node requires params.durability.enabled: without "
                "replicated redo logs a crash loses acknowledged writes")
        acc = self.accelerators[node_id]
        if acc.session.powered_off:
            return
        acc.session.powered_off = True
        self.memory.allocator.set_allocatable(node_id, False)
        self.durability.on_node_dead(node_id)
        self.env.process(self.durability.recovery.recover(node_id))

    def drain_node(self, node_id: int):
        """Scale in: migrate everything off ``node_id``.

        Marks the node non-allocatable, then live-migrates every range
        it owns to the remaining nodes; its switch rules disappear as
        the placement map coalesces.  Returns the drain *process* --
        ``cluster.env.run(until=cluster.drain_node(1))`` -- so traversals
        keep running while the drain progresses.
        """
        self._forbid_sharded("drain_node")
        return self.env.process(self.placement.engine.drain(node_id))

    def migrate(self, virt_start: int, virt_end: int, dst_node: int):
        """Live-migrate one virtual range; returns the sim process.

        A sharded rack migrates through a replicated factory passed to
        :meth:`shard` (``tests/scenario.py``'s ``migration_storm``).
        """
        self._forbid_sharded("migrate")
        return self.env.process(
            self.placement.engine.migrate(virt_start, virt_end, dst_node))

    def rebalance_once(self):
        """Run a single rebalancer round; returns the sim process."""
        self._forbid_sharded("rebalance_once")
        return self.env.process(self.placement.rebalancer.rebalance_once())

    def start_rebalancer(self) -> None:
        self._forbid_sharded("start_rebalancer")
        self.placement.rebalancer.start()

    def stop_rebalancer(self) -> None:
        self.placement.rebalancer.stop()

    def load_index(self, structure) -> int:
        """Bulk-prime every client's split index from a built structure.

        ``structure`` must expose ``index_entries()`` (HashTable,
        BPlusTree, SkipList).  A no-op when the cluster was built
        without ``split_index=True``.  Returns entries loaded per
        directory.
        """
        if not self.indexes:
            return 0
        entries = list(structure.index_entries())
        loaded = 0
        for directory in self.indexes:
            loaded = directory.bulk_load(entries, self.memory.placement)
        return loaded

    # -- running work -----------------------------------------------------------
    def _pick_client(self) -> PulseClient:
        client = self.clients[self._next_client]
        self._next_client = (self._next_client + 1) % len(self.clients)
        return client

    def submit(self, iterator: PulseIterator,
               *args) -> PendingTraversal:
        """Issue one traversal asynchronously; returns immediately.

        With multiple CPU nodes, successive calls round-robin across
        them, so many in-flight submissions naturally spread over the
        clients (and their doorbell batchers).
        """
        return self._pick_client().submit(iterator, *args)

    def submit_many(self, requests: Sequence[Tuple[PulseIterator, tuple]]
                    ) -> List[PendingTraversal]:
        """Issue a burst of traversals; the batch-first primary seam.

        The whole burst lands on *one* client (round-robin advances per
        burst, not per request) so the submissions coalesce in that
        client's doorbell batcher and arrive at the accelerators as
        multi-request frames -- the unit the accelerator forms its
        lockstep lane groups from.  Scalar :meth:`submit` remains the one-off fallback.
        """
        if not requests:
            return []
        client = self._pick_client()
        return client.submit_many(requests)

    def traverse(self, iterator: PulseIterator, *args):
        """Generator interface used by the workload driver.

        Thin submit-and-wait wrapper over :meth:`submit`.
        """
        result = yield from self._pick_client().traverse(iterator, *args)
        return result

    def run_traversal(self, iterator: PulseIterator,
                      *args) -> TraversalResult:
        """Run one traversal synchronously, always from ``client0``;
        the round-robin of :meth:`submit` does not advance."""
        return self.env.run(until=self.env.process(
            self.clients[0].traverse(iterator, *args)))

    # -- observability ------------------------------------------------------------
    def begin_measurement(self) -> None:
        """Open the post-warmup measurement window.

        Besides the registry's reset, re-bases every accelerator
        pipeline's busy-time window (``Resource.begin_window``, the one
        window kept outside the registry) in the same instant.  Under
        sharding, the coordinator resets immediately and each worker
        resets at the start of the next sync window -- still before any
        post-reset traffic can reach it.
        """
        self._begin_measurement_local()
        if self.sharded:
            self.runtime.begin_measurement()

    def _begin_measurement_local(self) -> None:
        super().begin_measurement()
        for acc in self.accelerators:
            for core in acc.cores:
                core.memory_pipeline.begin_window()
                core.logic_pipeline.begin_window()

    def metrics_snapshot(self) -> dict:
        """One JSON-able export of every metric in the rack.

        When the cluster is sharded, worker-owned ``mem{i}.*`` /
        ``net.mem{i}.*`` metrics are pulled from the worker processes
        and merged into one rack-wide view.
        """
        if self.runtime is not None and self.runtime._started:
            return self.runtime.metrics_snapshot()
        return super().metrics_snapshot()
