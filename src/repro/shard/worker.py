"""Worker side of sharded execution: one process per memory-node shard.

Each worker is a copy-on-write fork of the fully built cluster.  It
owns the ``mem{i}`` endpoints for its assigned nodes (accelerator,
memory pipeline, allocator, frame pool) and stays inert for
everything else -- the coordinator never routes frames to non-owned
endpoints, so those replicas' message handlers are never called and
they run no process.  The main loop is
purely reactive: inject the frames (and schedule the measurement
reset) that arrived with an ``ADVANCE``, run every local event strictly
before the window end, then report exports and the next pending event
time back.
"""

from __future__ import annotations

import random
import traceback

from repro.shard.runtime import ShardError, ShardRouter, apply_reset
from repro.shard.transport import (ADVANCE, DONE, ERROR, SNAPSHOT, STOP,
                                   STOPPED)


def _snapshot_at(cluster, at_ns: float) -> dict:
    """Snapshot the local registry with gauges read at the rack clock.

    A worker's clock rests wherever its last window left it, which can
    sit past the coordinator's stop time; time-dependent callback
    gauges (bandwidth windows, hotness decay) must be evaluated at the
    coordinator's ``now`` or the merged snapshot would mix clocks.
    """
    env = cluster.env
    saved, env._now = env._now, at_ns
    try:
        return cluster.registry.snapshot()
    finally:
        env._now = saved


def worker_main(conn, cluster, owned_nodes, worker_index: int, seed,
                replicated) -> None:
    """Entry point run inside each forked worker process."""
    try:
        # The replica inherits the parent's global ``random`` state;
        # reseed so no worker-local draw depends on fork timing.
        random.seed(f"{seed}:shard:{worker_index}:{tuple(owned_nodes)}")
        env = cluster.env
        owned_names = frozenset(f"mem{i}" for i in owned_nodes)
        router = ShardRouter(lambda name: name in owned_names,
                             worker_index)
        cluster.fabric.shard_router = router
        cluster.runtime = None  # replicas never re-broadcast a reset
        for factory in replicated:
            env.process(factory(cluster))
        while True:
            try:
                request = conn.recv()
            except EOFError:
                return
            tag = request[0]
            if tag == ADVANCE:
                _, window_end, frames, reset, activation_ns = request
                if reset:
                    apply_reset(cluster, activation_ns)
                for frame in frames:
                    cluster.fabric.inject(frame.message, frame.arrival_ns)
                env.run_window(window_end)
                conn.send((DONE, router.drain(), env.peek()))
            elif tag == SNAPSHOT:
                conn.send((SNAPSHOT, _snapshot_at(cluster, request[1])))
            elif tag == STOP:
                conn.send((STOPPED, _snapshot_at(cluster, request[1])))
                return
            else:
                raise ShardError(f"unknown request tag {tag!r}")
    except BaseException:
        try:
            conn.send((ERROR, traceback.format_exc()))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass
