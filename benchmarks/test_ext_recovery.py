"""Extension: durability -- crash a memory node under load, lose nothing.

Beyond the paper (which assumes nodes stay up): every acknowledged
STORE is journaled to a per-node redo log and replicated to a peer
before the client sees the acknowledgment, so a node crash costs
latency, never data.

Claims gated here:

1. **Zero lost acknowledged writes.**  Every key is durably updated,
   a node is killed mid-workload, and after recovery every updated
   value reads back exactly.
2. **Crashes are latency events, not fault events.**  The find stream
   running across the crash completes with zero faults and zero lost
   requests: the switch re-injects reclaimed in-flight frames at the
   elected replica owners.
3. **Recovery is bounded.**  ``recovery.time_to_recover_ns`` stays
   under a fixed budget, and the crash-run p99 stays within a fixed
   factor of the quiet rack's p99.

Writes ``ext_recovery.txt`` (report table) and
repo-root ``BENCH_recovery.json`` (raw numbers, uploaded by CI's
ext-recovery job).
"""

from conftest import save_table, scale_requests

from repro.bench.driver import run_workload
from repro.bench.experiments import format_table
from repro.bench.report import write_snapshot
from repro.core import PulseCluster
from repro.durability import CrashInjector
from repro.params import (DurabilityParams, NetworkParams, SystemParams,
                          TransportParams)
from repro.structures import HashTable
from repro.workloads import ZipfianKeyGenerator

NUM_PAIRS = 2_000
CHAIN_LENGTH = 100
NODE_COUNT = 4
CONCURRENCY = 32
VICTIM = 1
#: kill lands this long after the crash-run find stream starts
CRASH_AT_NS = 30_000.0
#: gate: crashed p99 within this factor of the quiet p99
P99_FACTOR = 8.0
#: gate: detect + replay + fence must fit in this budget
TTR_BUDGET_NS = 2_000_000.0


def recovery_params() -> SystemParams:
    return SystemParams().with_overrides(
        durability=DurabilityParams(enabled=True,
                                    group_commit_ns=4_000.0,
                                    failure_detect_ns=20_000.0),
        # Arm per-hop reliability on every link so frames black-holed at
        # the dead node stay unacked in the switch's reliable layer --
        # the failover takeover re-injects them instead of letting them
        # wait out the end-to-end timer.
        transport=TransportParams(mode="always"),
        # The end-to-end timer only covers requests that were *inside*
        # the dead accelerator at the kill instant (acked on the wire,
        # response suppressed); keep their second attempt prompt.
        network=NetworkParams(retransmit_timeout_ns=400_000.0),
    )


def build_rack(seed: int = 1):
    cluster = PulseCluster(node_count=NODE_COUNT,
                           params=recovery_params(), seed=seed)
    table = HashTable(cluster.memory,
                      buckets=max(1, NUM_PAIRS // CHAIN_LENGTH),
                      partition_nodes=NODE_COUNT)
    for key in range(NUM_PAIRS):
        table.insert(key, (10_000 + key).to_bytes(8, "little"))
    return cluster, table


def durable_update_all(cluster, table):
    updater = table.update_iterator()
    operations = [(updater, (k, 20_000 + k)) for k in range(NUM_PAIRS)]
    return run_workload(cluster, operations, concurrency=CONCURRENCY)


def find_ops(table, requests: int, seed: int):
    finder = table.find_iterator()
    zipf = ZipfianKeyGenerator(list(range(NUM_PAIRS)), seed=seed)
    return [(finder, (zipf.next_key(),)) for _ in range(requests)]


def run_recovery_experiment(requests: int):
    quiet_cluster, quiet_table = build_rack()
    quiet_updates = durable_update_all(quiet_cluster, quiet_table)
    quiet = run_workload(quiet_cluster, find_ops(quiet_table, requests,
                                                 seed=3),
                         concurrency=CONCURRENCY)

    crash_cluster, crash_table = build_rack()
    crash_updates = durable_update_all(crash_cluster, crash_table)
    crash_cluster.env.process(
        CrashInjector(VICTIM, CRASH_AT_NS)(crash_cluster))
    crash = run_workload(crash_cluster, find_ops(crash_table, requests,
                                                 seed=3),
                         concurrency=CONCURRENCY)

    lost_acked = 0
    for key in range(NUM_PAIRS):
        result = crash_cluster.run_traversal(crash_table.find_iterator(),
                                             key)
        value = int.from_bytes(result.value[:8], "little")
        if not result.ok or value != 20_000 + key:
            lost_acked += 1
    return (quiet_updates, quiet, crash_updates, crash, lost_acked,
            crash_cluster)


def test_ext_recovery(once):
    requests = scale_requests(4_000)
    (quiet_updates, quiet, crash_updates, crash, lost_acked,
     crash_cluster) = once(run_recovery_experiment, requests)

    snap = crash_cluster.metrics_snapshot()
    counters = snap["counters"]
    ttr_ns = snap["gauges"]["recovery.time_to_recover_ns"]
    quiet_p99 = quiet.percentile_latency_ns(99.0)
    crash_p99 = crash.percentile_latency_ns(99.0)

    rows = [
        ("quiet", f"{quiet.throughput_per_s:.0f}",
         f"{quiet.percentile_latency_ns(50.0):.0f}",
         f"{quiet_p99:.0f}", f"{quiet.faults}", "-", "-"),
        ("node crash", f"{crash.throughput_per_s:.0f}",
         f"{crash.percentile_latency_ns(50.0):.0f}",
         f"{crash_p99:.0f}", f"{crash.faults}",
         f"{ttr_ns:.0f}", f"{lost_acked}"),
    ]
    save_table("ext_recovery", format_table(
        ["scenario", "req_per_s", "p50_ns", "p99_ns", "faults",
         "ttr_ns", "lost_acked_writes"], rows))

    write_snapshot(
        "recovery",
        params={"requests": requests, "keys": NUM_PAIRS,
                "node_count": NODE_COUNT, "concurrency": CONCURRENCY,
                "crash_at_ns": CRASH_AT_NS,
                "p99_factor_gate": P99_FACTOR},
        metrics={
            "quiet_p99_ns": quiet_p99,
            "crash_p99_ns": crash_p99,
            "quiet_throughput_per_s": quiet.throughput_per_s,
            "crash_throughput_per_s": crash.throughput_per_s,
            "faults": crash.faults,
            "lost_requests": crash.lost,
            "lost_acked_writes": lost_acked,
            "time_to_recover_ns": ttr_ns,
            "ranges_rehomed": counters["recovery.ranges_rehomed"],
            "bytes_replayed": counters["recovery.bytes_replayed"],
            "reinjected_frames": counters["switch.reinjected_frames"],
            "restored_records": sum(
                v for name, v in counters.items()
                if name.endswith(".dur.restored_records")),
        },
        derived={"p99_ratio": crash_p99 / quiet_p99})

    # -- zero lost acknowledged writes -------------------------------------
    assert quiet_updates.faults == 0 and crash_updates.faults == 0
    assert crash_updates.completed == NUM_PAIRS
    assert lost_acked == 0

    # -- the crash is invisible except as latency --------------------------
    assert quiet.faults == 0 and crash.faults == 0
    assert quiet.lost == 0 and crash.lost == 0
    assert crash.completed == requests
    assert counters["recovery.crashes"] == 1
    assert counters["recovery.completed"] == 1

    # -- recovery is bounded ----------------------------------------------
    assert 0 < ttr_ns <= TTR_BUDGET_NS
    assert crash_p99 <= P99_FACTOR * quiet_p99
