"""Differential suite: a sharded run is event-for-event identical.

The same request stream runs against (a) the classic in-process cluster
and (b) an identically built cluster split across worker processes via
``cluster.shard(workers=N)``.  Every traversal must return byte-identical
values (and fault messages), the simulation must end at the identical
nanosecond, and the merged metrics snapshot must equal the in-process
one -- including under a live-migration storm racing mid-batch lanes
into ``RequestStatus.MOVED`` demotions.

``placement.hot.*`` gauges are part of the comparison: the hotness
tracker samples through per-node views with RNG streams seeded from
``(cluster seed, node id)``, so a worker that only executes its own
nodes draws the identical skips the in-process run draws for those
nodes, and the merged gauges sum per-worker contributions in the same
node order the in-process aggregate uses.
"""

import pytest

from repro.core import PulseCluster
from repro.durability import CrashInjector
from repro.params import DurabilityParams, PlacementParams, SystemParams
from repro.sim.network import LinkProfile
from repro.structures import BPlusTree, HashTable, LinkedList, SkipList

KEYS = 48
WORKER_COUNTS = (1, 2, 4)


def storm_params():
    return SystemParams().with_overrides(
        placement=PlacementParams(
            migration_bandwidth_bytes_per_ns=2.0,
            forward_window_ns=30_000.0,
        ))


def build_cluster(structure, node_count=4, params=None, seed=7, **kwargs):
    cluster = PulseCluster(node_count=node_count, params=params,
                           seed=seed, **kwargs)
    if structure == "chain":
        chain = LinkedList(cluster.memory)
        chain.extend([(k, k * 3 + 1) for k in range(KEYS)])
        iterator = chain.find_iterator()
    elif structure == "bplustree":
        tree = BPlusTree(cluster.memory, fanout=8)
        for k in range(KEYS):
            tree.insert(k, k * 7 + 3)
        iterator = tree.lookup_iterator()
    elif structure == "skiplist":
        skip = SkipList(cluster.memory, levels=4, seed=7)
        for k in range(KEYS):
            skip.insert(k, k * 5 + 2)
        iterator = skip.find_iterator()
    else:  # pragma: no cover - guard against typos in parametrize
        raise ValueError(structure)
    return cluster, iterator


def migration_storm(cluster):
    """Deterministic ping-pong storm, replicated into every process."""
    def storm():
        for _round in range(3):
            for src, dst in ((0, 1), (1, 0)):
                owned = cluster.memory.placement.rules_of(src)
                if not owned:
                    continue
                start, end = owned[0]
                yield cluster.env.process(
                    cluster.placement.engine.migrate(start, end, dst))
                yield cluster.env.timeout(5_000.0)
    return storm()


def arena_storm(cluster):
    """Ping-pong every chain-arena extent whole between two nodes.

    The arena-extent list is sorted by virtual start and identical in
    every replica, so the storm replays deterministically when sharded.
    """
    def storm():
        extents = cluster.memory.allocator.arena_extents()
        for _round in range(3):
            for start, end in extents:
                home = cluster.memory.placement.node_of(start)
                if home is None:
                    continue
                yield cluster.env.process(
                    cluster.placement.engine.migrate(start, end,
                                                     1 - home))
                yield cluster.env.timeout(5_000.0)
    return storm()


def run_stream(cluster, iterator, workers=0, storm=False, batch=False,
               storm_fn=migration_storm):
    """Run the canonical stream; returns (results, snapshot, end_ns)."""
    replicated = (storm_fn,) if storm else ()
    runtime = cluster.shard(workers=workers,
                            replicated=replicated) if workers else None
    if storm and runtime is None:
        cluster.env.process(storm_fn(cluster))
    if batch:
        pending = cluster.submit_many([(iterator, (k,))
                                       for k in range(KEYS)])
    else:
        pending = [cluster.submit(iterator, k) for k in range(KEYS)]
    try:
        cluster.env.run(
            until=cluster.env.all_of([p._process for p in pending]))
    finally:
        cluster.shutdown()  # no-op in-process; reaps workers when sharded
    snapshot = cluster.metrics_snapshot()
    return [p.result for p in pending], snapshot, cluster.env.now


def snapshot_delta(expected, actual):
    """Names whose values differ between two metric snapshots."""
    delta = {}
    for section in ("counters", "gauges", "histograms"):
        for name in set(expected[section]) | set(actual[section]):
            if expected[section].get(name) != actual[section].get(name):
                delta[name] = (expected[section].get(name),
                               actual[section].get(name))
    return delta


def assert_identical(baseline, sharded, workers):
    base_results, base_snap, base_now = baseline
    shard_results, shard_snap, shard_now = sharded
    assert [r.value for r in shard_results] == \
        [r.value for r in base_results]
    assert [r.latency_ns for r in shard_results] == \
        [r.latency_ns for r in base_results]
    assert [getattr(r.fault, "reason", None) for r in shard_results] == \
        [getattr(r.fault, "reason", None) for r in base_results]
    assert shard_now == base_now
    delta = snapshot_delta(base_snap, shard_snap)
    assert not delta, delta


@pytest.mark.parametrize("structure", ["chain", "bplustree", "skiplist"])
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_sharded_stream_is_byte_identical(structure, workers):
    baseline = run_stream(*build_cluster(structure))
    sharded = run_stream(*build_cluster(structure), workers=workers)
    assert_identical(baseline, sharded, workers)


@pytest.mark.parametrize("structure", ["chain", "bplustree"])
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_sharded_lossy_stream_is_byte_identical(structure, workers):
    """Loss composes with sharding: jitter and drop are decided by the
    sender at tx-end in either mode, so every link RNG is drawn in the
    same order and retransmissions fire at the same nanosecond."""
    def build():
        cluster, iterator = build_cluster(structure)
        cluster.fabric.configure_all_links(
            LinkProfile(drop_probability=0.05, jitter_ns=300.0))
        return cluster, iterator

    baseline = run_stream(*build())
    sharded = run_stream(*build(), workers=workers)
    counters = baseline[1]["counters"]
    assert counters["net.dropped_messages"] > 0
    assert sum(v for k, v in counters.items()
               if k.endswith(".tp.retransmits")) > 0
    assert_identical(baseline, sharded, workers)


@pytest.mark.parametrize("workers", (1, 2))
def test_sharded_migration_storm_is_byte_identical(workers):
    baseline = run_stream(*build_cluster("chain", node_count=2,
                                         params=storm_params()),
                          storm=True)
    sharded_cluster, iterator = build_cluster("chain", node_count=2,
                                              params=storm_params())
    sharded = run_stream(sharded_cluster, iterator, workers=workers,
                         storm=True)
    # The storm actually migrated in the sharded replicas too.
    assert sharded_cluster.placement.engine.completed >= 2
    assert_identical(baseline, sharded, workers)


@pytest.mark.parametrize("structure", ["chain", "skiplist"])
@pytest.mark.parametrize("workers", (1, 2))
def test_sharded_arena_storm_is_byte_identical(structure, workers):
    """Storming whole chain arenas stays byte-identical when sharded."""
    baseline = run_stream(*build_cluster(structure, node_count=2,
                                         params=storm_params()),
                          storm=True, storm_fn=arena_storm)
    sharded_cluster, iterator = build_cluster(structure, node_count=2,
                                              params=storm_params())
    sharded = run_stream(sharded_cluster, iterator, workers=workers,
                         storm=True, storm_fn=arena_storm)
    assert sharded_cluster.placement.engine.completed >= 2
    assert_identical(baseline, sharded, workers)


@pytest.mark.parametrize("workers", (2,))
def test_batch_demotion_races_migration(workers):
    """Mid-batch MOVED demotions resume bit-exact on the new owner.

    Batched lanes execute in lockstep on the accelerator; a racing
    migration flips ownership mid-batch, so lanes hit
    ``RequestStatus.MOVED``, demote out of the batch, and retry at the
    live owner.  The sharded run must take the identical demotion path.
    """
    def build(**kw):
        return build_cluster("chain", node_count=2,
                             params=storm_params(),
                             batch_lanes=16, batch_size=32, **kw)

    baseline = run_stream(*build(), storm=True, batch=True)
    sharded = run_stream(*build(), workers=workers, storm=True,
                         batch=True)
    counters = baseline[1]["counters"]
    demotions = sum(v for k, v in counters.items()
                    if k.endswith(".acc.batch.demotions"))
    moved = sum(v for k, v in counters.items()
                if k.endswith(".acc.moved_replies"))
    assert demotions > 0, "storm never demoted a batch lane"
    assert moved > 0, "storm never produced a MOVED reply"
    assert counters.get("switch.moved_redirects", 0) > 0
    assert_identical(baseline, sharded, workers)


def test_fault_messages_are_byte_identical():
    """A wild pointer faults with the identical message when sharded."""
    def build():
        cluster = PulseCluster(node_count=2, seed=7)
        chain = LinkedList(cluster.memory)
        addrs = [chain.append(k, k) for k in range(1, 6)]
        next_offset = chain.layout.offset("next")
        wild = cluster.memory.addrspace.range_of(1)[1] - 8
        cluster.memory.nodes[0].memory.write(
            cluster.memory.addrspace.to_physical(addrs[2])[1]
            + next_offset,
            wild.to_bytes(8, "little"))
        return cluster, chain.find_iterator()

    c0, it0 = build()
    r0 = c0.run_traversal(it0, 5)
    c1, it1 = build()
    runtime = c1.shard(workers=2)
    r1 = c1.run_traversal(it1, 5)
    runtime.stop()
    assert not r0.ok and not r1.ok
    assert "invalid pointer" in r0.fault.reason
    assert r1.fault.reason == r0.fault.reason
    assert r1.latency_ns == r0.latency_ns


def test_two_sharded_runs_are_reproducible():
    """Same seed, same shard count -> identical merged snapshots."""
    first = run_stream(*build_cluster("chain"), workers=2, storm=False)
    second = run_stream(*build_cluster("chain"), workers=2, storm=False)
    assert [r.value for r in first[0]] == [r.value for r in second[0]]
    assert first[2] == second[2]
    # Full equality, hotness sampling included: the per-process RNG
    # streams are seeded from (cluster seed, node ids), so two
    # identically sharded runs replay the identical draws.
    assert not snapshot_delta(first[1], second[1]), \
        snapshot_delta(first[1], second[1])


# -- crash/recover schedules -------------------------------------------------
UPDATED = tuple(range(0, KEYS, 3))
READ_ONLY = tuple(k for k in range(KEYS) if k % 3)


def crash_params():
    return SystemParams().with_overrides(
        durability=DurabilityParams(enabled=True,
                                    group_commit_ns=2_000.0,
                                    failure_detect_ns=20_000.0))


def build_crash_cluster(seed=7):
    cluster = PulseCluster(node_count=4, params=crash_params(), seed=seed)
    table = HashTable(cluster.memory, buckets=64, partition_nodes=4)
    for k in range(KEYS):
        table.insert(k, (1_000 + k).to_bytes(8, "little"))
    return cluster, table


def run_crash_stream(cluster, table, workers=0, crash=False):
    """Two request waves around a (possible) node-1 crash.

    Wave 1 updates each ``UPDATED`` key exactly once (absolute values,
    so replay order cannot matter) while finding the disjoint
    ``READ_ONLY`` keys; the crash lands mid-wave.  Wave 2 then re-reads
    every updated key strictly after every update was acknowledged --
    zero lost acknowledged writes, observed through the recovered
    routing.  Returns the same (results, snapshot, end_ns) triple as
    :func:`run_stream`.
    """
    injector = CrashInjector(1, 6_000.0)
    replicated = (injector,) if crash else ()
    runtime = cluster.shard(workers=workers,
                            replicated=replicated) if workers else None
    if crash and runtime is None:
        cluster.env.process(injector(cluster))
    try:
        wave1 = ([cluster.submit(table.update_iterator(), k, 7_000 + k)
                  for k in UPDATED]
                 + [cluster.submit(table.find_iterator(), k)
                    for k in READ_ONLY])
        cluster.env.run(
            until=cluster.env.all_of([p._process for p in wave1]))
        wave2 = [cluster.submit(table.find_iterator(), k)
                 for k in UPDATED]
        cluster.env.run(
            until=cluster.env.all_of([p._process for p in wave2]))
    finally:
        cluster.shutdown()
    snapshot = cluster.metrics_snapshot()
    return [p.result for p in wave1 + wave2], snapshot, cluster.env.now


def test_crash_recovery_is_value_transparent():
    """Quiet vs crashed/recovered: values identical, no lost acks."""
    quiet = run_crash_stream(*build_crash_cluster())
    crashed = run_crash_stream(*build_crash_cluster(), crash=True)
    assert all(r.ok for r in crashed[0]), [
        r.fault for r in crashed[0] if not r.ok]
    assert [r.value for r in crashed[0]] == [r.value for r in quiet[0]]
    # Wave 2 read every acknowledged update back through the recovered
    # routing -- cross-check the payloads, not just quiet-equality.
    wave2 = crashed[0][-len(UPDATED):]
    assert [int.from_bytes(r.value[:8], "little") for r in wave2] == \
        [7_000 + k for k in UPDATED]
    assert crashed[1]["counters"]["recovery.completed"] == 1
    assert quiet[1]["counters"].get("recovery.crashes", 0) == 0


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_sharded_crash_recovery_is_byte_identical(workers):
    """The crash/recover schedule replays byte-identically sharded."""
    baseline = run_crash_stream(*build_crash_cluster(), crash=True)
    sharded = run_crash_stream(*build_crash_cluster(), workers=workers,
                               crash=True)
    assert sharded[1]["counters"]["recovery.completed"] == 1
    assert_identical(baseline, sharded, workers)


def test_worker_count_env_knob(monkeypatch):
    """PULSE_WORKERS shards transparently on first submission."""
    monkeypatch.setenv("PULSE_WORKERS", "2")
    baseline = run_stream(*build_cluster("chain", node_count=2))
    monkeypatch.delenv("PULSE_WORKERS")
    inproc = run_stream(*build_cluster("chain", node_count=2))
    assert [r.value for r in baseline[0]] == [r.value for r in inproc[0]]
    assert baseline[2] == inproc[2]
