"""Extension: client-resident split index -- one-RTT point lookups.

Beyond the paper's always-traverse design: indexable structures keep a
compact client-side directory from key to the terminal node's virtual
address, so a directory hit becomes a single direct READ at the owning
memory node -- one RTT, no switch traversal, no pointer chase -- while
misses and stale hints fall back to the offloaded traversal engine.

The experiment sweeps the directory hit rate over a long-chain hash
table (chains of ~100, the regime where traversals are expensive) and
compares the point-lookup p50 against an identical rack without the
index.  Claims:

1. At a hit rate of 0.9 or better the indexed p50 is at most 0.6x the
   offloaded-traversal p50.
2. Latency improves monotonically with hit rate, and every returned
   value is byte-identical to the reference -- the index changes how
   bytes are fetched, never which bytes.

Writes ``ext_split_index.txt`` (report table) and
repo-root ``BENCH_split_index.json`` (raw numbers, uploaded by CI's
split-index job).
"""

import random

from conftest import save_table, scale_requests

from repro.bench.driver import run_workload
from repro.bench.experiments import format_table
from repro.bench.report import write_snapshot
from repro.core import PulseCluster
from repro.params import MB
from repro.structures import HashTable

NUM_PAIRS = 2_000
CHAIN_LENGTH = 100
VALUE_BYTES = 240
NODE_CAPACITY = 8 * MB
CONCURRENCY = 8
HIT_RATES = (0.0, 0.5, 0.9, 1.0)


def build_rack(indexed: bool, seed: int = 1):
    cluster = PulseCluster(node_count=2, node_capacity=NODE_CAPACITY,
                           seed=seed, split_index=indexed)
    table = HashTable(cluster.memory,
                      buckets=max(1, NUM_PAIRS // CHAIN_LENGTH),
                      value_bytes=VALUE_BYTES, partition_nodes=2)
    for key in range(NUM_PAIRS):
        table.insert(key, key.to_bytes(8, "little") * (VALUE_BYTES // 8))
    return cluster, table


def prime_fraction(cluster, table, keys) -> None:
    """Load only ``keys`` into every client directory."""
    wanted = set(keys)
    entries = [(k, addr) for k, addr in table.index_entries()
               if k in wanted]
    for directory in cluster.indexes:
        directory.bulk_load(entries, cluster.memory.placement)


def run_sweep(requests: int):
    # Each key is requested exactly once, so the achieved hit rate is
    # exactly the primed fraction (misses learn, but are never re-asked).
    rng = random.Random(11)
    keys = rng.sample(range(NUM_PAIRS), requests)

    base_cluster, base_table = build_rack(indexed=False)
    finder = base_table.find_iterator()
    base_stats = run_workload(base_cluster,
                              [(finder, (k,)) for k in keys],
                              concurrency=CONCURRENCY)
    reference = {k: r.value for k, r in zip(keys, base_stats.results)}

    sweep = []
    for hit_rate in HIT_RATES:
        cluster, table = build_rack(indexed=True)
        prime_fraction(cluster, table, keys[:int(hit_rate * len(keys))])
        finder = table.find_iterator()
        stats = run_workload(cluster, [(finder, (k,)) for k in keys],
                             concurrency=CONCURRENCY)
        counters = cluster.metrics_snapshot()["counters"]
        wrong = sum(1 for k, r in zip(keys, stats.results)
                    if r.value != reference[k])
        sweep.append({
            "hit_rate": hit_rate,
            "p50_ns": stats.percentile_latency_ns(50.0),
            "p99_ns": stats.percentile_latency_ns(99.0),
            "avg_iterations": stats.avg_iterations,
            "hits": counters.get("index.hits", 0),
            "misses": counters.get("index.misses", 0),
            "stale_nacks": counters.get("index.stale_nacks", 0),
            "faults": stats.faults,
            "wrong_values": wrong,
        })
    return base_stats, sweep


def test_ext_split_index(once):
    requests = scale_requests(512)
    base_stats, sweep = once(lambda: run_sweep(requests))
    base_p50 = base_stats.percentile_latency_ns(50.0)

    rows = [("traversal", "-", f"{base_p50:.0f}",
             f"{base_stats.percentile_latency_ns(99.0):.0f}",
             f"{base_stats.avg_iterations:.1f}", "-", "-")]
    for cell in sweep:
        rows.append((f"indexed", f"{cell['hit_rate']:.1f}",
                     f"{cell['p50_ns']:.0f}", f"{cell['p99_ns']:.0f}",
                     f"{cell['avg_iterations']:.1f}",
                     f"{cell['hits']}", f"{cell['misses']}"))
    save_table("ext_split_index", format_table(
        ["system", "hit_rate", "p50_ns", "p99_ns", "avg_iters",
         "hits", "misses"], rows))

    by_rate = {cell["hit_rate"]: cell for cell in sweep}
    write_snapshot(
        "split_index",
        params={"requests": requests, "chain_length": CHAIN_LENGTH},
        metrics={"sweep": sweep},
        derived={
            "p50_traversal_ns": base_p50,
            "p50_hit09_ns": by_rate[0.9]["p50_ns"],
            "speedup_at_hit09": base_p50 / by_rate[0.9]["p50_ns"],
        })

    # -- correctness: the index never changes what reads observe ----------
    assert base_stats.faults == 0
    for cell in sweep:
        assert cell["faults"] == 0
        assert cell["wrong_values"] == 0

    # -- the paper-style headline claim -----------------------------------
    # At hit rate >= 0.9 the point-lookup p50 collapses to a single
    # direct READ: at most 0.6x the offloaded-traversal p50.
    assert by_rate[0.9]["p50_ns"] <= 0.6 * base_p50
    assert by_rate[1.0]["p50_ns"] <= by_rate[0.9]["p50_ns"]
    # More hits, lower latency: the sweep is monotone.
    p50s = [cell["p50_ns"] for cell in sweep]
    assert p50s == sorted(p50s, reverse=True)
    # The directory served what it was primed for.
    assert by_rate[1.0]["hits"] == requests
    assert by_rate[0.0]["hits"] == 0
