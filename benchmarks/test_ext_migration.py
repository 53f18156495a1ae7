"""Extension: elastic placement -- migration storms and scale-out.

Two claims, both beyond the paper (which fixes placement at build time):

1. **Live migration is latency-bounded.**  A Zipfian YCSB stream runs
   against a 2-node rack while segments ping-pong between the nodes.
   Every request completes, none fault, and the p99 stays within a
   small factor of the quiet baseline -- stragglers pay one extra
   switch reroute, never a lost request or an end-to-end retry storm.
2. **Scale-out recovers throughput.**  A saturated 2-node rack gains a
   third node via ``cluster.add_node()``; rebalancing rounds migrate
   data onto it and the same workload then runs measurably faster on
   three accelerators than on two.

Writes ``ext_migration.txt`` (report table) and
repo-root ``BENCH_migration.json`` (raw numbers, uploaded by CI's
benches job).
"""

from conftest import save_table, scale_requests

from repro.bench.driver import run_workload
from repro.bench.report import write_snapshot
from repro.bench.experiments import format_table
from repro.core import PulseCluster
from repro.params import KB, MB, MemoryParams, PlacementParams, SystemParams
from repro.structures import HashTable
from repro.workloads import ZipfianKeyGenerator

NUM_PAIRS = 4_000
CHAIN_LENGTH = 200
VALUE_BYTES = 240
NODE_CAPACITY = 8 * MB
#: enough closed-loop workers to saturate a 2-node rack's accelerators,
#: so adding a third node shows up as throughput rather than idle time
CONCURRENCY = 64


def placement_params() -> SystemParams:
    return SystemParams().with_overrides(
        memory=MemoryParams(node_capacity_bytes=NODE_CAPACITY),
        placement=PlacementParams(
            segment_bytes=256 * KB,
            migrations_per_round=4,
            fill_imbalance_threshold=0.02,
        ))


def build_rack(requests: int, seed: int = 1):
    cluster = PulseCluster(node_count=2, params=placement_params(),
                           seed=seed)
    table = HashTable(cluster.memory,
                      buckets=max(1, NUM_PAIRS // CHAIN_LENGTH),
                      value_bytes=VALUE_BYTES, partition_nodes=2)
    for key in range(NUM_PAIRS):
        table.insert(key, key.to_bytes(8, "little") * (VALUE_BYTES // 8))
    finder = table.find_iterator()
    zipf = ZipfianKeyGenerator(list(range(NUM_PAIRS)), seed=seed)
    operations = [(finder, (zipf.next_key(),)) for _ in range(requests)]
    return cluster, operations


def migration_storm(cluster, rounds: int):
    """Ping-pong ~1 MB of segments between the nodes, repeatedly."""
    engine = cluster.migration
    env = cluster.env
    for _round in range(rounds):
        for src, dst in ((0, 1), (1, 0)):
            owned = cluster.memory.placement.rules_of(src)
            if not owned:
                continue
            start, end = owned[0]
            end = min(end, start + 1 * MB)
            try:
                yield env.process(engine.migrate(start, end, dst))
            except Exception:
                continue
            yield env.timeout(10_000.0)


def run_storm_experiment(requests: int):
    quiet, quiet_ops = build_rack(requests)
    quiet_stats = run_workload(quiet, quiet_ops, concurrency=CONCURRENCY)

    stormy, stormy_ops = build_rack(requests)
    storm = stormy.env.process(migration_storm(stormy, rounds=6))
    storm_stats = run_workload(stormy, stormy_ops,
                               concurrency=CONCURRENCY)
    if not storm.triggered:
        stormy.env.run(until=storm)
    return quiet_stats, storm_stats, stormy


def run_scaleout_experiment(requests: int):
    cluster, operations = build_rack(requests, seed=2)
    before = run_workload(cluster, operations, concurrency=CONCURRENCY)

    new_node = cluster.add_node()
    moved = 0
    for _ in range(24):
        proc = cluster.rebalance_once()
        cluster.env.run(until=proc)
        moved += proc.value
        fills = cluster.memory.allocator.node_fill_fractions()
        if proc.value == 0 or max(fills) - min(fills) < 0.02:
            break
    after = run_workload(cluster, operations, concurrency=CONCURRENCY)
    new_bytes = cluster.metrics_snapshot()["counters"][
        f"mem{new_node}.acc.bytes_loaded"]
    return before, after, moved, new_bytes


def _reroutes_per_request(stats) -> float:
    """Switch node-to-node reroutes per completed request of one run."""
    return (stats.metrics["counters"]["switch.rerouted_node_to_node"]
            / stats.completed)


def test_ext_migration(once):
    requests = scale_requests(256)
    results = once(lambda: (run_storm_experiment(requests),
                            run_scaleout_experiment(requests)))
    (quiet, storm, stormy_cluster), (before, after, moved, new_bytes) = \
        results

    engine = stormy_cluster.migration
    rows = [
        ("quiet", f"{quiet.throughput_per_s:.0f}",
         f"{quiet.percentile_latency_ns(99.0):.0f}",
         f"{quiet.faults}", "0", "0"),
        ("storm", f"{storm.throughput_per_s:.0f}",
         f"{storm.percentile_latency_ns(99.0):.0f}",
         f"{storm.faults}", f"{engine.completed}",
         f"{engine.bytes_migrated}"),
        ("2 nodes", f"{before.throughput_per_s:.0f}",
         f"{before.percentile_latency_ns(99.0):.0f}",
         f"{before.faults}", "0", "0"),
        ("3 nodes", f"{after.throughput_per_s:.0f}",
         f"{after.percentile_latency_ns(99.0):.0f}",
         f"{after.faults}", "-", f"{moved}"),
    ]
    save_table("ext_migration", format_table(
        ["scenario", "req_per_s", "p99_ns", "faults", "migrations",
         "bytes_moved"], rows))

    write_snapshot(
        "migration",
        params={"requests": requests},
        metrics={
            "storm": {
                "quiet_p99_ns": quiet.percentile_latency_ns(99.0),
                "storm_p99_ns": storm.percentile_latency_ns(99.0),
                "quiet_throughput_per_s": quiet.throughput_per_s,
                "storm_throughput_per_s": storm.throughput_per_s,
                "migrations": engine.completed,
                "bytes_migrated": engine.bytes_migrated,
                "quiet_reroutes_per_req": _reroutes_per_request(quiet),
                "storm_reroutes_per_req": _reroutes_per_request(storm),
                "faults": storm.faults,
            },
            "scale_out": {
                "before_throughput_per_s": before.throughput_per_s,
                "after_throughput_per_s": after.throughput_per_s,
                "bytes_rebalanced": moved,
                "new_node_bytes_loaded": new_bytes,
            },
        })

    # -- migration storm: transparent and bounded -------------------------
    assert quiet.faults == 0 and storm.faults == 0
    assert storm.completed == len(quiet.latencies_ns) == requests
    assert engine.completed >= 2          # the storm really moved data
    assert engine.bytes_migrated > 0
    # p99 under a continuous migration storm stays within a small factor
    # of the quiet rack (a straggler pays one extra switch bounce, not a
    # retransmission timeout).
    assert (storm.percentile_latency_ns(99.0)
            <= 5.0 * quiet.percentile_latency_ns(99.0))

    # -- scale-out: the new node takes real load and throughput recovers --
    assert moved > 0                      # rebalancing shipped bytes
    assert new_bytes > 0                  # ... and the new node serves them
    assert after.faults == 0
    assert (after.throughput_per_s
            > 1.05 * before.throughput_per_s)
