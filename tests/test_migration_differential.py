"""Differential test: a migrating cluster must be invisible to clients.

The same request stream runs against (a) a static cluster and (b) an
identically built cluster whose segments are live-migrated back and
forth -- a migration storm -- while the requests are in flight.  Every
traversal must return the identical value, none may fault, and none may
be lost: migration may change *where* bytes live and *how long* a
traversal takes, never *what it observes*.

Each test is a parameter set over :mod:`tests.scenario`; the quiet
baseline is the same run with an empty schedule.
"""

import pytest

from repro.durability import CrashInjector

from tests.helpers import drain
from tests.scenario import (KEYS, arena_storm, as_int,
                            assert_values_identical, build, durable_params,
                            lookups, migration_storm, run, stored,
                            storm_params, updates)


def storm_rack(structure):
    return build(structure, nodes=2, params=storm_params())


@pytest.mark.parametrize("structure", ["hashtable", "linkedlist"])
def test_migration_storm_is_value_transparent(structure):
    cluster, built = storm_rack(structure)
    baseline = run(cluster, [lookups(built)])
    cluster, built = storm_rack(structure)
    stormed = run(cluster, [lookups(built)], schedule=(migration_storm(),))

    assert all(r.ok for r in baseline[0])
    assert_values_identical(baseline, stormed)
    # The storm actually moved data -- otherwise this test is vacuous.
    assert cluster.migration.completed >= 2


def test_arena_chain_storm_is_value_transparent():
    """Storm whole chain-arena extents: byte-identical, zero losses.

    Structures now allocate through per-chain traversal arenas, and the
    rebalancer's cut phase ships those extents as a unit -- so the
    transparency guarantee must hold when the migration unit is an
    arena extent (many live nodes per move), not a placement rule.
    """
    cluster, chain = storm_rack("linkedlist")
    baseline = run(cluster, [lookups(chain)])

    cluster, chain = storm_rack("linkedlist")
    extents = list(cluster.memory.allocator._extent_spans)
    assert extents, "linked list no longer allocates through an arena"
    stormed = run(cluster, [lookups(chain)], schedule=(arena_storm,))

    assert_values_identical(baseline, stormed)
    assert cluster.migration.completed >= 2 * len(extents)


def durable_rack():
    return build("durable-hashtable", nodes=4, params=durable_params())


def test_crash_recovery_schedule_is_value_transparent():
    """Migrate, then crash under load: values identical to a quiet run.

    A segment is live-migrated off the to-be-killed node *before* any
    update, so recovery runs against a placement that no longer matches
    the arithmetic partition -- the dead node owns a partial rule set
    and a live node owns a segment homed on the dead node.  The crashed
    run must still return byte-identical values, zero faults, and zero
    lost acknowledged writes.
    """
    def prepared():
        cluster, table = durable_rack()
        start, end = cluster.memory.placement.rules_of(1)[0]
        mid = start + (end - start) // 2
        cluster.env.run(until=cluster.migrate(mid, end, 3))
        # One update wave, then a read-back wave strictly after it.
        return cluster, [updates(table, range(0, KEYS, 2)), lookups(table)]

    quiet = run(*prepared())
    cluster, waves = prepared()
    crashed = run(cluster, waves, schedule=(CrashInjector(1, 6_000.0),))

    assert_values_identical(quiet, crashed)
    # Every acknowledged update survived the crash of whichever node
    # acknowledged it: the read wave ran strictly after the update wave.
    assert [as_int(r) for r in crashed[0][-KEYS:]] == \
        [7_000 + k if k % 2 == 0 else 1_000 + k for k in range(KEYS)]
    counters = crashed[1]["counters"]
    assert counters["recovery.completed"] == 1
    assert counters["recovery.ranges_rehomed"] >= 1


def test_acknowledged_stores_survive_migration_onto_the_replica_holder():
    """Update every key and collect the acks; then node 0's rule moves
    to node 1 -- the node holding its replicated log -- and node 1
    dies.  Every acknowledged STORE must still read back."""
    cluster, table = durable_rack()
    settle_ns = 200_000.0

    def migrate_then_crash(cluster):
        yield cluster.env.timeout(settle_ns)
        start, end = cluster.memory.placement.rules_of(0)[0]
        yield cluster.env.process(
            cluster.migration.migrate(start, end, 1))
        yield from CrashInjector(1, 0.0)(cluster)

    results, snapshot, _end = run(
        cluster, [updates(table, range(KEYS)), lookups(table)],
        schedule=(migrate_then_crash,))
    stores, reads = results[:KEYS], results[KEYS:]
    # Every STORE was acknowledged before the schedule touched the rack.
    assert all(r.ok and r.latency_ns < settle_ns for r in stores)
    assert snapshot["counters"]["recovery.completed"] == 1
    assert all(r.ok for r in reads)
    assert [as_int(r) for r in reads] == [7_000 + k for k in range(KEYS)]


def test_every_owner_stays_recoverable_after_migrating_acked_stores():
    """Update every key; then node 0's rule moves to node 1 and node 1
    drains onto the others.  Nobody dies, but the scenario invariants
    replay each owner's first replica target over its allocations: each
    fence must image the moved range into the new owner's replica."""
    cluster, table = durable_rack()

    def migrate_then_drain(cluster):
        yield cluster.env.timeout(200_000.0)
        start, end = cluster.memory.placement.rules_of(0)[0]
        yield cluster.env.process(
            cluster.migration.migrate(start, end, 1))
        yield cluster.env.process(drain(cluster, 1))

    results, _snapshot, _end = run(
        cluster, [updates(table, range(KEYS)), lookups(table)],
        schedule=(migrate_then_drain,))
    assert cluster.memory.placement.rules_of(1) == []
    assert [as_int(r) for r in results[KEYS:]] == \
        [7_000 + k for k in range(KEYS)]


def scale_out_then_drain(cluster):
    cluster.add_node()
    yield cluster.env.process(drain(cluster, 0))


def test_storm_with_drain_and_scale_out():
    """Scale-out then drain under load: values still identical; a fresh
    pass over the drained layout still reads every key."""
    cluster, table = storm_rack("hashtable")
    fresh = (0, KEYS // 2, KEYS - 1)
    results, _snapshot, _end = run(
        cluster, [lookups(table), lookups(table, fresh)],
        schedule=(scale_out_then_drain,))

    assert all(r.ok for r in results), [
        r.fault for r in results if not r.ok]
    # Results pad values to the scratch width; compare the stored bytes.
    assert [r.value[:8] for r in results] == \
        [stored(k) for k in (*range(KEYS), *fresh)]
    assert cluster.memory.placement.rules_of(0) == []
