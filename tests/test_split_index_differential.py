"""Differential test: the split index must never change what reads see.

The same point-lookup stream runs against (a) a static cluster with no
split index and (b) an identically built cluster with the split index
enabled whose segments are live-migrated back and forth -- a migration
storm -- while lookups are in flight.  The index may only change *how*
a value is fetched (one direct READ vs an offloaded traversal), never
*which bytes* come back: every result must be byte-identical to the
static baseline and none may fault, even while cached hints go stale
mid-storm.

The moving cluster runs the directory in lazy mode (no eager
invalidation on migration) so stale hints actually reach a memory node
and are refused there: the run is only convincing if the NACK-and-
fall-back path demonstrably fired (``index.stale_nacks > 0``).
"""

import pytest

from tests.scenario import (KEYS, assert_values_identical, build, lookups,
                            migration_storm, run, storm_params)

#: an odd leg count, so every hint learned (or bulk-loaded) before the
#: storm is stale once it finishes -- the bytes live on the other node
ODD_STORM = migration_storm(legs=((0, 1), (1, 0), (0, 1)), rounds=1)


def stream(structure, indexed, schedule=()):
    """Every key twice on a fresh (primed) rack.  The second wave
    replays against the settled layout: it starts only once the storm
    has finished, so a stale hint *must* NACK."""
    cluster, built = build(structure, nodes=2, params=storm_params(),
                           split_index=indexed,
                           split_index_invalidate=False)
    cluster.load_index(built)     # prime so the storm stales it
    return cluster, built, run(cluster, [lookups(built), lookups(built)],
                               schedule=schedule)


@pytest.mark.parametrize("structure", ["hashtable", "btree"])
def test_split_index_storm_is_value_transparent(structure):
    _c, _b, baseline = stream(structure, indexed=False)
    cluster, _b, stormed = stream(structure, indexed=True,
                                  schedule=(ODD_STORM,))

    assert all(r.ok for r in baseline[0])
    # Byte-identical values, in order: zero wrong reads.
    assert_values_identical(baseline, stormed)

    counters = stormed[1]["counters"]
    # The run must have exercised the interesting paths, or the test
    # is vacuous: hints served hits, went stale, NACKed, and repaired.
    assert cluster.migration.completed >= 2
    assert counters["index.hits"] > 0
    assert counters["index.stale_nacks"] > 0
    assert counters["index.repairs"] > 0


def test_post_storm_lookups_settle_back_to_direct_reads():
    """After the storm, repaired hints serve one-RTT hits again."""
    cluster, table, _stormed = stream("hashtable", indexed=True,
                                      schedule=(ODD_STORM,))
    cluster.registry.reset()

    results, snapshot, _end = run(cluster, [lookups(table)])
    assert all(r.ok for r in results)
    assert all(r.iterations == 1 for r in results)
    assert snapshot["counters"]["index.hits"] == KEYS
    assert snapshot["counters"]["index.stale_nacks"] == 0
