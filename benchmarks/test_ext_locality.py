"""Extension: access-locality sensitivity of caching vs offloading.

The paper's core claim is that caches only help when there is locality
to exploit, while offloading is locality-independent (§2.1).  The
evaluation uses uniform access (the cache's worst case); this bench adds
the other end: a Zipfian-skewed key distribution (YCSB's default skew)
where a small hot set dominates.

Measured shape -- and the sharper version of the paper's argument: even
heavy skew barely rescues the cache on long chains, because a depth-d
traversal touches ~d distinct pages (chain nodes interleave with other
chains in allocation order), diluting the "hot set" far beyond cache
capacity.  pulse is flat across distributions.  Locality only becomes
exploitable when traversals are short -- which is exactly when you did
not need an accelerator in the first place.
"""

from conftest import save_table, scale_requests

from repro.bench.driver import run_workload
from repro.bench.experiments import format_table, make_system
from repro.structures import HashTable
from repro.workloads import UniformKeyGenerator, ZipfianKeyGenerator

NUM_PAIRS = 20_000
CHAIN = 100


def _run(system_name: str, distribution: str):
    system = make_system(system_name, node_count=1)
    table = HashTable(system.memory, buckets=NUM_PAIRS // CHAIN,
                      value_bytes=240, partition_nodes=1)
    for key in range(NUM_PAIRS):
        table.insert(key, key.to_bytes(8, "little") * 30)
    keys = list(range(NUM_PAIRS))
    # Decouple Zipf rank from insertion order (and hence chain depth):
    # hot keys should be *random* keys, not systematically the deepest.
    import random
    random.Random(7).shuffle(keys)
    generator = (UniformKeyGenerator(keys, seed=3)
                 if distribution == "uniform"
                 else ZipfianKeyGenerator(keys, seed=3))
    finder = table.find_iterator()
    requests = scale_requests(60)
    operations = [(finder, (generator.next_key(),))
                  for _ in range(requests)]
    # A warmup pass fills the cache, then measure (the second run opens
    # a new measurement window, so the hit ratio covers it alone).
    run_workload(system, operations, concurrency=4)
    stats = run_workload(system, list(operations), concurrency=4)
    assert stats.faults == 0
    hit_ratio = stats.metrics["gauges"].get("client0.cache.hit_ratio", 0.0)
    return stats.avg_latency_ns, hit_ratio


def test_extension_locality_sensitivity(once):
    results = once(lambda: {
        (system, dist): _run(system, dist)
        for system in ("pulse", "cache")
        for dist in ("uniform", "zipfian")
    })

    rows = []
    for (system, dist), (latency, hits) in sorted(results.items()):
        rows.append((system, dist, f"{latency/1e3:.1f}",
                     f"{hits:.2f}"))
    save_table("ext_locality", format_table(
        ["system", "distribution", "avg_us", "hit_ratio"], rows))

    cache_uniform, hits_uniform = results[("cache", "uniform")]
    cache_zipf, hits_zipf = results[("cache", "zipfian")]
    pulse_uniform, _ = results[("pulse", "uniform")]
    pulse_zipf, _ = results[("pulse", "zipfian")]

    # Skew nudges the cache in the right direction...
    assert hits_zipf >= hits_uniform
    assert cache_zipf <= 1.05 * cache_uniform
    # ... but buys very little: the hot set is diluted across ~one page
    # per chain node, so even YCSB-grade skew cannot make it fit.
    assert (cache_uniform - cache_zipf) < 0.25 * cache_uniform
    # pulse does not care about the distribution at all.
    assert abs(pulse_zipf - pulse_uniform) < 0.15 * pulse_uniform
    # And the cache remains an order of magnitude behind.
    assert cache_zipf > 10 * pulse_zipf
