"""Coordinator side of sharded execution: conservative lookahead sync.

Determinism argument (the sharded differential suite pins it):

* The cluster is built fully in one process, then forked, so every
  process starts from an identical replica.  *Ownership* decides which
  process delivers fabric frames to an endpoint: the coordinator owns
  the clients and the switch, worker ``w`` owns ``mem{i}`` for its
  assigned nodes.  Non-owned components simply never receive traffic
  and stay inert: a message handler nobody calls, and no process.
* All processes advance in windows ``[start, end)`` with
  ``end = t_min + L``, where ``t_min`` is the earliest pending event
  anywhere and ``L`` is the *lookahead*: the minimum cross-process
  propagation latency (one wire segment plus switch processing --
  every session sends with ``segments >= 1``).  Any frame transmitted
  inside a window is transmitted at time ``>= t_min``, so it arrives at
  ``>= t_min + L = end``: never inside the window that produced it.
  Frames are therefore always delivered to the owning process *before*
  it runs the window containing their arrival.
* Concurrent exports are merged in ``(arrival time, source process,
  export sequence)`` order before injection, so the receiver's event
  queue is populated identically run-to-run -- and identically to the
  in-process cluster, whose fabric resolves every message at tx-end
  the same way (jitter, drop verdict, arrival time) and differs only
  in injecting the arrival itself instead of exporting it.

Windows are adaptive: when every process is idle until some far-off
timer, the window jumps straight to ``t_min + L``, so synchronization
cost scales with event density, not simulated time.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable, Dict, List, Optional, Sequence

from repro.shard.transport import (ADVANCE, DONE, ERROR, SNAPSHOT, STOP,
                                   STOPPED, WireFrame)
from repro.sim.engine import Event

#: metric names accumulated across processes rather than owned by one
SUMMED_COUNTERS = ("net.delivered_messages", "net.dropped_messages")
#: hotness gauges: each process's tracker sees only the touches its own
#: accelerators execute, so the per-process values are disjoint shares
SUMMED_GAUGE_PREFIX = "placement.hot."
MAXED_GAUGES = ("placement.hot.peak",)


class ShardError(RuntimeError):
    """Misuse of (or a failure inside) the sharded runtime."""


def lookahead_ns(params) -> float:
    """The conservative window size: minimum cross-process link latency.

    Every cross-boundary send covers at least one wire segment plus the
    switch processing stage (jitter only adds), so no frame transmitted
    at ``t`` can arrive before ``t + L``.
    """
    lookahead = float(params.network.segment_ns
                      + params.network.switch_process_ns)
    if lookahead <= 0:
        raise ShardError(
            "sharded execution needs a positive minimum link latency "
            f"(segment_ns + switch_process_ns = {lookahead})")
    return lookahead


class ShardRouter:
    """Captures cross-boundary fabric traffic inside one process."""

    def __init__(self, is_local: Callable[[str], bool], src_process: int):
        self._is_local = is_local
        self.src_process = src_process
        self._out: List[WireFrame] = []
        self._seq = 0

    def owns(self, name: str) -> bool:
        return self._is_local(name)

    def export(self, message, arrival_ns: float) -> None:
        self._out.append(WireFrame(message, arrival_ns, self._seq,
                                   self.src_process))
        self._seq += 1

    def drain(self) -> List[WireFrame]:
        out, self._out = self._out, []
        return out


def apply_reset(cluster, activation_ns: float) -> None:
    """Schedule ``begin_measurement`` in this replica at ``activation_ns``.

    The window start must take effect at the *same* simulated instant in
    every replica, so the coordinator stamps it with the start of the
    window it ships with, and both sides schedule the reset there.  It is
    the only thing broadcast besides frames: perturbations (migrations,
    crashes) each run as a ``shard(replicated=...)`` factory in every
    replica.
    """
    env = cluster.env
    event = Event(env)
    event._ok = True
    event.callbacks.append(
        lambda _event: cluster._begin_measurement_local())
    env.schedule_at(event, activation_ns)


def merge_snapshots(base: Dict, worker_snapshots: Dict[int, Dict],
                    assignment: Dict[int, List[int]]) -> Dict:
    """Merge per-process registry snapshots into one rack-wide view.

    Ownership by name prefix: ``mem{i}.*`` and ``net.mem{i}.*`` come
    from the worker serving node ``i`` (the coordinator's replicas of
    those metrics never move past zero); fabric-global delivery
    counters are summed across processes; everything else -- clients,
    switch, placement, request histograms -- is coordinator-owned.
    """
    merged = {
        "now_ns": base.get("now_ns", 0.0),
        "counters": dict(base.get("counters", {})),
        "gauges": dict(base.get("gauges", {})),
        "histograms": dict(base.get("histograms", {})),
    }
    for worker, snapshot in sorted(worker_snapshots.items()):
        prefixes = tuple(f"mem{i}." for i in assignment[worker])
        prefixes += tuple(f"net.mem{i}." for i in assignment[worker])
        for section in ("counters", "gauges", "histograms"):
            for name, value in snapshot.get(section, {}).items():
                if name.startswith(prefixes):
                    merged[section][name] = value
        for name in SUMMED_COUNTERS:
            merged["counters"][name] = (
                merged["counters"].get(name, 0)
                + snapshot.get("counters", {}).get(name, 0))
        for name, value in snapshot.get("gauges", {}).items():
            if name in MAXED_GAUGES:
                merged["gauges"][name] = max(
                    merged["gauges"].get(name, 0.0), value)
            elif name.startswith(SUMMED_GAUGE_PREFIX):
                merged["gauges"][name] = (
                    merged["gauges"].get(name, 0.0) + value)
    delivered = merged["counters"].get("net.delivered_messages", 0)
    dropped = merged["counters"].get("net.dropped_messages", 0)
    offered = delivered + dropped
    if "net.delivery_ratio" in merged["gauges"]:
        merged["gauges"]["net.delivery_ratio"] = (
            delivered / offered if offered else 1.0)
    return merged


class ShardedRuntime:
    """Spawner: forks one worker process per shard and runs the barrier.

    Usage::

        cluster = PulseCluster(node_count=4, seed=7)
        ...build structures...                  # before the fork
        runtime = cluster.shard(workers=4)      # forks + installs hooks
        stats = run_open_loop(cluster, ops, 8e6)  # transparently sharded
        snapshot = cluster.metrics_snapshot()   # merged rack-wide view
        runtime.stop()

    ``replicated`` holds process factories (``factory(cluster) ->
    generator``) started identically in *every* replica right after the
    fork -- the mechanism the migration-storm differential uses to run
    one deterministic storm schedule in all processes at once.
    """

    def __init__(self, cluster, workers: Optional[int] = None,
                 replicated: Sequence[Callable] = ()):
        self.cluster = cluster
        count = int(workers) if workers is not None else 0
        if count < 1:
            raise ShardError(f"need at least one worker (got {count})")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ShardError(
                "sharded execution needs the fork start method "
                "(replicas are copy-on-write images of the built cluster)")
        node_ids = [node.node_id for node in cluster.memory.nodes]
        self.workers = min(count, len(node_ids))
        #: worker index -> node ids it serves (round-robin)
        self.assignment: Dict[int, List[int]] = {
            w: [i for i in node_ids if i % self.workers == w]
            for w in range(self.workers)
        }
        self.lookahead = lookahead_ns(cluster.params)
        self.replicated = list(replicated)
        self.replicated_procs: List = []
        self._owner: Dict[str, int] = {
            f"mem{i}": w
            for w, nodes in self.assignment.items() for i in nodes
        }
        self._conns: Dict[int, object] = {}
        self._procs: Dict[int, object] = {}
        self._peeks: Dict[int, float] = {}
        self._pending: Dict[int, List[WireFrame]] = {}
        #: a begin_measurement awaiting the next window start
        self._reset_pending = False
        self._round_open = False
        self._last_end: float = 0.0
        self._router: Optional[ShardRouter] = None
        self._final_snapshots: Dict[int, Dict] = {}
        self._started = False
        self._stopped = False
        self._owner_pid = os.getpid()

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "ShardedRuntime":
        if self._started:
            raise ShardError("runtime already started")
        from repro.shard.worker import worker_main
        cluster = self.cluster
        env = cluster.env
        ctx = multiprocessing.get_context("fork")
        for w in range(self.workers):
            parent, child = ctx.Pipe()
            process = ctx.Process(
                target=worker_main,
                args=(child, cluster, self.assignment[w], w,
                      cluster.fabric.seed, self.replicated),
                daemon=True)
            process.start()
            child.close()
            self._conns[w] = parent
            self._procs[w] = process
            self._pending[w] = []
            # Conservative first-round estimate: a worker may have
            # replicated-process events as early as "now".
            self._peeks[w] = env.now
        # Coordinator-side wiring happens only after every fork, so the
        # worker replicas carry no router or window hook.
        owned_by_workers = frozenset(self._owner)
        self._router = ShardRouter(
            lambda name: name not in owned_by_workers, -1)
        cluster.fabric.shard_router = self._router
        self.replicated_procs = [
            env.process(factory(cluster)) for factory in self.replicated
        ]
        self._last_end = env.now
        env.set_window_hook(self._window_hook)
        self._started = True
        return self

    def stop(self) -> None:
        """Collect final snapshots, join the workers, unhook the env."""
        if not self._started or self._stopped:
            return
        self._stopped = True
        try:
            if self._round_open:
                self._collect_round()
            for w, conn in sorted(self._conns.items()):
                conn.send((STOP, self.cluster.env.now))
                reply = conn.recv()
                if reply[0] == ERROR:
                    raise ShardError(
                        f"worker {w} failed during stop:\n{reply[1]}")
                self._final_snapshots[w] = reply[1]
        finally:
            for conn in self._conns.values():
                try:
                    conn.close()
                except OSError:
                    pass
            for process in self._procs.values():
                process.join(timeout=5)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5)
            self.cluster.env.clear_window_hook()
            self.cluster.fabric.shard_router = None

    def __enter__(self) -> "ShardedRuntime":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def __del__(self):
        # Forked workers inherit this object (later forks inherit the
        # Process handles of earlier ones); only the creating process
        # may reap them -- is_alive() asserts on the parent pid.
        if os.getpid() != getattr(self, "_owner_pid", os.getpid()):
            return
        for process in getattr(self, "_procs", {}).values():
            if process.is_alive():
                process.terminate()

    # -- measurement window ------------------------------------------------
    def begin_measurement(self) -> None:
        """Reset worker metrics at the next window start.

        The coordinator resets immediately (exactly like the in-process
        cluster); workers reset at the start of the next window -- with
        a warmup of zero that is still before any measured traffic
        reaches them, so merged snapshots match the in-process run.
        """
        if self._stopped:
            raise ShardError("runtime already stopped")
        self._reset_pending = True

    # -- observability -----------------------------------------------------
    def metrics_snapshot(self) -> Dict:
        base = self.cluster.registry.snapshot()
        snapshots = self._final_snapshots or self._query_snapshots()
        return merge_snapshots(base, snapshots, self.assignment)

    def _query_snapshots(self) -> Dict[int, Dict]:
        if self._round_open:
            self._collect_round()
        out = {}
        for w, conn in sorted(self._conns.items()):
            conn.send((SNAPSHOT, self.cluster.env.now))
            reply = conn.recv()
            if reply[0] == ERROR:
                raise ShardError(f"worker {w} failed:\n{reply[1]}")
            out[w] = reply[1]
        return out

    # -- the window barrier --------------------------------------------------
    def _window_hook(self, limit: float = float("inf")) -> bool:
        """One sync round; called by the env when it needs the next window.

        Rounds are asynchronous: the hook ships ``ADVANCE`` and returns
        immediately, so the coordinator simulates window ``k`` while the
        workers simulate it too; the *next* hook call collects their
        ``DONE`` replies first.  Returns False when no process has an
        event at time <= ``limit``.
        """
        env = self.cluster.env
        self._route(self._router.drain())
        if self._round_open:
            self._collect_round()
        t_min = min(env.peek(),
                    min(self._peeks.values(), default=float("inf")),
                    min((frame.arrival_ns
                         for frames in self._pending.values()
                         for frame in frames), default=float("inf")))
        if t_min == float("inf") or t_min > limit:
            return False
        end = t_min + self.lookahead
        activation = self._last_end
        reset, self._reset_pending = self._reset_pending, False
        for w, conn in sorted(self._conns.items()):
            frames = sorted(self._pending[w], key=WireFrame.sort_key)
            self._pending[w] = []
            conn.send((ADVANCE, end, frames, reset, activation))
        if reset:
            apply_reset(self.cluster, activation)
        self._round_open = True
        self._last_end = end
        env.advance_window(end)
        return True

    def _collect_round(self) -> None:
        frames: List[WireFrame] = []
        for w, conn in sorted(self._conns.items()):
            try:
                reply = conn.recv()
            except EOFError:
                raise ShardError(f"worker {w} exited mid-window") from None
            if reply[0] == ERROR:
                raise ShardError(f"worker {w} failed:\n{reply[1]}")
            if reply[0] != DONE:
                raise ShardError(
                    f"unexpected reply {reply[0]!r} from worker {w}")
            frames.extend(reply[1])
            self._peeks[w] = reply[2]
        self._round_open = False
        self._route(frames)

    def _route(self, frames: List[WireFrame]) -> None:
        """Merge exports deterministically and hand them to their owners."""
        local: List[WireFrame] = []
        for frame in frames:
            owner = self._owner.get(frame.message.dst)
            if owner is None:
                local.append(frame)
            else:
                self._pending[owner].append(frame)
        for frame in sorted(local, key=WireFrame.sort_key):
            self.cluster.fabric.inject(frame.message, frame.arrival_ns)
