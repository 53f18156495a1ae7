"""Differential suite: a sharded run is event-for-event identical.

The same request stream runs against (a) the classic in-process cluster
and (b) an identically built cluster split across worker processes via
``cluster.shard(workers=N)``.  Every traversal must return byte-identical
values (and fault messages), the simulation must end at the identical
nanosecond, and the merged metrics snapshot must equal the in-process
one -- including under a live-migration storm racing mid-batch lanes
into reroute demotions.

Each test is a parameter set over :mod:`tests.scenario`: in-process is
``workers=0`` of the same run.

``placement.hot.*`` gauges are part of the comparison: the hotness
tracker samples through per-node views with RNG streams seeded from
``(cluster seed, node id)``, so a worker that only executes its own
nodes draws the identical skips the in-process run draws for those
nodes, and the merged gauges sum per-worker contributions in the same
node order the in-process aggregate uses.
"""

import pytest

from repro.durability import CrashInjector

from tests.scenario import (KEYS, arena_storm, as_int, assert_identical,
                            assert_values_identical, build, corrupt_chain,
                            durable_params, lookups, lossy_links,
                            migration_storm, run, snapshot_delta,
                            storm_params, total, updates)

WORKER_COUNTS = (1, 2, 4)


def stream(structure, workers=0, schedule=(), batch=False, nodes=4,
           **rack):
    """The canonical stream -- every key once -- on a fresh rack;
    returns the cluster with its outcome."""
    cluster, built = build(structure, nodes=nodes, **rack)
    return cluster, run(cluster, [lookups(built)], schedule=schedule,
                        workers=workers, batch=batch)


@pytest.mark.parametrize("structure", ["chain", "bplustree", "skiplist"])
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_sharded_stream_is_byte_identical(structure, workers):
    _c, baseline = stream(structure)
    _c, sharded = stream(structure, workers=workers)
    assert_identical(baseline, sharded)


@pytest.mark.parametrize("structure", ["chain", "bplustree"])
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_sharded_lossy_stream_is_byte_identical(structure, workers):
    """Loss composes with sharding: jitter and drop are decided by the
    sender at tx-end in either mode, so every link RNG is drawn in the
    same order and retransmissions fire at the same nanosecond."""
    schedule = (lossy_links(0.05),)
    _c, baseline = stream(structure, schedule=schedule)
    _c, sharded = stream(structure, workers=workers, schedule=schedule)
    assert baseline[1]["counters"]["net.dropped_messages"] > 0
    assert total(baseline[1], ".tp.retransmits") > 0
    assert_identical(baseline, sharded)


@pytest.mark.parametrize("workers", (1, 2))
def test_sharded_migration_storm_is_byte_identical(workers):
    storm = dict(schedule=(migration_storm(),), nodes=2,
                 params=storm_params())
    _c, baseline = stream("chain", **storm)
    cluster, sharded = stream("chain", workers=workers, **storm)
    # The storm actually migrated in the sharded replicas too.
    assert cluster.migration.completed >= 2
    assert_identical(baseline, sharded)


@pytest.mark.parametrize("structure", ["chain", "skiplist"])
@pytest.mark.parametrize("workers", (1, 2))
def test_sharded_arena_storm_is_byte_identical(structure, workers):
    """Storming whole chain arenas stays byte-identical when sharded."""
    storm = dict(schedule=(arena_storm,), nodes=2, params=storm_params())
    _c, baseline = stream(structure, **storm)
    cluster, sharded = stream(structure, workers=workers, **storm)
    assert cluster.migration.completed >= 2
    assert_identical(baseline, sharded)


@pytest.mark.parametrize("workers", (2,))
def test_batch_demotion_races_migration(workers):
    """Mid-batch reroute demotions resume bit-exact on the new owner.

    Batched lanes execute in lockstep on the accelerator; a racing
    migration flips ownership mid-batch, so lanes miss, demote out of
    the batch as RUNNING, and retry at the live owner.  The sharded run
    must take the identical demotion path.
    """
    rack = dict(batch=True, nodes=2, params=storm_params(),
                batch_lanes=16, batch_size=32)
    racing = dict(schedule=(migration_storm(),), **rack)
    _c, quiet = stream("chain", **rack)
    _c, baseline = stream("chain", **racing)
    _c, sharded = stream("chain", workers=workers, **racing)
    snapshot = baseline[1]
    assert total(snapshot, ".acc.batch.demotions") > 0, \
        "storm never demoted a batch lane"
    for counter in (".acc.rerouted", "switch.rerouted_node_to_node"):
        assert total(snapshot, counter) > total(quiet[1], counter), \
            f"storm never rerouted a migrated-away miss ({counter})"
    assert_identical(baseline, sharded)


def test_composed_loss_storm_and_doorbell_bursts():
    """Loss x migration storm x 32-lane doorbell bursts in one run:
    value-identical to the quiet run, byte-identical when sharded."""
    rack = dict(batch=True, nodes=2, params=storm_params(),
                batch_lanes=32, batch_size=32)
    schedule = (lossy_links(0.05), migration_storm())
    _c, quiet = stream("chain", **rack)
    cluster, composed = stream("chain", schedule=schedule, **rack)
    _c, sharded = stream("chain", workers=2, schedule=schedule, **rack)

    snapshot = composed[1]
    assert snapshot["counters"]["net.dropped_messages"] > 0
    assert total(snapshot, ".tp.retransmits") > 0
    assert cluster.migration.completed >= 2
    assert total(snapshot, ".acc.batch.groups") > 0
    assert_values_identical(quiet, composed)
    assert_identical(composed, sharded)


def test_fault_messages_are_byte_identical():
    """A wild pointer faults with the identical message when sharded."""
    def wild_run(workers):
        cluster, chain = build("chain", nodes=2)
        corrupt_chain(cluster, chain, 2,
                      cluster.memory.addrspace.range_of(1)[1] - 8)
        return run(cluster, [lookups(chain, (5,))], workers=workers)

    baseline, sharded = wild_run(0), wild_run(2)
    assert "invalid pointer" in baseline[0][0].fault.reason
    assert_identical(baseline, sharded)


def test_two_sharded_runs_are_reproducible():
    """Same seed, same shard count -> identical merged snapshots."""
    _c, first = stream("chain", workers=2)
    _c, second = stream("chain", workers=2)
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


def crash_stream(workers=0, schedule=()):
    """Two request waves around a (possible) node-1 crash.

    Wave 1 updates each ``UPDATED`` key exactly once while finding the
    disjoint ``READ_ONLY`` keys; the crash lands mid-wave.  Wave 2 then
    re-reads every updated key strictly after every update was
    acknowledged -- zero lost acknowledged writes, observed through the
    recovered routing.
    """
    cluster, table = build("durable-hashtable", nodes=4,
                           params=durable_params())
    waves = [updates(table, UPDATED) + lookups(table, READ_ONLY),
             lookups(table, UPDATED)]
    return run(cluster, waves, schedule=schedule, workers=workers)


CRASH = (CrashInjector(1, 6_000.0),)


def test_crash_recovery_is_value_transparent():
    """Quiet vs crashed/recovered: values identical, no lost acks."""
    quiet = crash_stream()
    crashed = crash_stream(schedule=CRASH)
    assert_values_identical(quiet, crashed)
    # Wave 2 read every acknowledged update back through the recovered
    # routing -- cross-check the payloads, not just quiet-equality.
    assert [as_int(r) for r in crashed[0][-len(UPDATED):]] == \
        [7_000 + k for k in UPDATED]
    assert crashed[1]["counters"]["recovery.completed"] == 1
    assert quiet[1]["counters"].get("recovery.crashes", 0) == 0


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_sharded_crash_recovery_is_byte_identical(workers):
    """The crash/recover schedule replays byte-identically sharded."""
    baseline = crash_stream(schedule=CRASH)
    sharded = crash_stream(workers=workers, schedule=CRASH)
    assert sharded[1]["counters"]["recovery.completed"] == 1
    assert_identical(baseline, sharded)
