"""Tests for the baseline systems: RPC, RPC-W, Cache-based, Cache+RPC."""

import pytest

from repro.baselines import CacheRpcSystem, CacheSystem, RpcSystem
from repro.baselines.cache import PageCache, cache_counters
from repro.baselines.common import workers_to_saturate
from repro.bench.driver import run_workload
from repro.bench.experiments import build_workload, make_system
from repro.core import PulseCluster
from repro.obs.metrics import MetricsRegistry
from repro.params import DEFAULT_PARAMS
from repro.structures import HashTable, LinkedList

from tests.helpers import counter_value, with_memory


def populate_list(system, n=30):
    lst = LinkedList(system.memory)
    lst.extend((k, k * 10) for k in range(1, n + 1))
    return lst


def run(system, iterator, *args):
    process = system.env.process(system.traverse(iterator, *args))
    return system.env.run(until=process)


class TestRpcSystem:
    def test_traversal_correct(self):
        rpc = RpcSystem(node_count=1)
        lst = populate_list(rpc)
        result = run(rpc, lst.find_iterator(), 17)
        assert result.value == 170
        assert result.iterations == 17

    def test_missing_key(self):
        rpc = RpcSystem(node_count=1)
        lst = populate_list(rpc)
        result = run(rpc, lst.find_iterator(), 1000)
        assert result.value is None
        assert result.ok

    def test_wimpy_slower_than_regular(self):
        fast = RpcSystem(node_count=1)
        slow = RpcSystem(node_count=1, wimpy=True)
        lst_fast = populate_list(fast, n=100)
        lst_slow = populate_list(slow, n=100)
        t_fast = run(fast, lst_fast.find_iterator(), 100).latency_ns
        t_slow = run(slow, lst_slow.find_iterator(), 100).latency_ns
        assert t_slow > t_fast

    def test_multi_node_traversal_bounces_through_client(self):
        rpc = RpcSystem(node_count=2)
        lst = LinkedList(rpc.memory,
                         placement=lambda ordinal: ordinal % 2)
        lst.extend((k, k) for k in range(1, 11))
        result = run(rpc, lst.find_iterator(), 10)
        assert result.value == 10
        assert result.hops == 9
        # Each hop crossed the client: 1 initial + 9 continuations.
        assert counter_value(
            rpc, f"net.{rpc.client.name}.rx_messages") == 10

    def test_worker_autosizing_saturates(self):
        workers = workers_to_saturate(
            DEFAULT_PARAMS.cpu,
            DEFAULT_PARAMS.memory.bandwidth_bytes_per_ns)
        assert 5 <= workers <= 30
        wimpy_workers = workers_to_saturate(
            DEFAULT_PARAMS.wimpy,
            DEFAULT_PARAMS.memory.bandwidth_bytes_per_ns)
        assert wimpy_workers >= workers

    def test_invalid_pointer_faults(self):
        rpc = RpcSystem(node_count=1)
        lst = populate_list(rpc)
        finder = lst.find_iterator()
        lst.head = 0xDEAD  # point into unmapped space
        result = run(rpc, finder, 1)
        assert not result.ok

    def test_unreadable_range_faults_on_load(self):
        """The worker's LOAD honours PERM_READ like ``read_virt`` does."""
        from repro.mem.translation import PERM_WRITE

        rpc = RpcSystem(node_count=1)
        lst = populate_list(rpc)
        node = rpc.memory.nodes[0]
        for entry in node.table.entries:
            entry.perms = PERM_WRITE
        node.table.version += 1
        result = run(rpc, lst.find_iterator(), 17)
        assert not result.ok
        assert "protection fault" in result.fault.reason


class TestPageCache:
    def test_hit_after_fill(self):
        cache = PageCache(capacity=2)
        assert not cache.access(1)
        cache.fill(1)
        assert cache.access(1)

    def test_lru_eviction_order(self):
        cache = PageCache(capacity=2)
        assert not cache.fill(1)
        assert not cache.fill(2)
        cache.access(1)      # 1 most recent
        assert cache.fill(3)  # evicts 2
        assert cache.access(1)
        assert not cache.access(2)
        assert cache.access(3)

    def test_hit_ratio(self):
        """The LRU counts nothing; the ratio is a gauge over the
        system's registry counters."""
        registry = MetricsRegistry()
        hits, misses, _evictions = cache_counters(registry, "client0.cache")
        ratio = registry.gauge("client0.cache.hit_ratio")
        assert ratio.value == 0.0
        hits.inc()
        misses.inc()
        assert ratio.value == pytest.approx(0.5)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            PageCache(0)


class TestCacheSystem:
    def test_traversal_correct(self):
        cache = CacheSystem(node_count=1)
        lst = populate_list(cache)
        result = run(cache, lst.find_iterator(), 9)
        assert result.value == 90
        assert not result.offloaded  # everything ran at the CPU node

    def test_cold_misses_then_warm_hits(self):
        cache = CacheSystem(node_count=1,
                            params=with_memory(cache_bytes=1 << 20))
        lst = populate_list(cache, n=50)
        finder = lst.find_iterator()
        cold = run(cache, finder, 50).latency_ns
        warm = run(cache, finder, 50).latency_ns
        # The 50-node chain fits in a couple of pages: the warm run
        # skips the fault round trips entirely (locality is all this
        # system has; remaining cost is local per-iteration work).
        assert warm < cold * 0.7
        assert counter_value(cache, "client0.cache.hits") > 0
        assert counter_value(cache, "client0.cache.pages_fetched") <= 2

    def test_thrashing_when_cache_tiny(self):
        cache = CacheSystem(node_count=1, params=with_memory(cache_bytes=4096))
        lst = populate_list(cache, n=2000)
        finder = lst.find_iterator()
        run(cache, finder, 2000)
        first_misses = counter_value(cache, "client0.cache.misses")
        run(cache, finder, 2000)
        # no reuse across runs
        assert counter_value(cache, "client0.cache.misses") > first_misses

    def test_page_granularity_fetches(self):
        cache = CacheSystem(node_count=1)
        lst = populate_list(cache, n=20)
        run(cache, lst.find_iterator(), 20)
        # 20 nodes x 24 B sit in a handful of 4 KB pages.
        assert 1 <= counter_value(cache, "client0.cache.pages_fetched") <= 3

    def test_invalid_pointer_faults(self):
        cache = CacheSystem(node_count=1)
        lst = populate_list(cache)
        finder = lst.find_iterator()
        lst.head = 0xDEAD
        result = run(cache, finder, 1)
        assert not result.ok

    def test_memory_utilization_covers_only_the_measured_window(self):
        """The pages served before warmup ends are not measured: the
        served-bytes counter resets with every other metric."""
        cache = make_system("cache")
        upc = build_workload(cache, "UPC", 1, requests=60)
        run_workload(cache, upc.operations[:30], concurrency=4)
        stats = run_workload(cache, upc.operations[30:], concurrency=4)
        fetched = stats.metrics["counters"]["client0.cache.pages_fetched"]
        assert fetched > 0
        expected = (fetched * cache.page_bytes / stats.duration_ns
                    / cache.params.memory.bandwidth_bytes_per_ns)
        assert cache.memory_bandwidth_utilization() == pytest.approx(
            expected)

    def test_hit_ratio_covers_only_the_measured_window(self):
        """The hit-ratio gauge is the registry's hit and miss counters:
        accesses made before warmup ends are not in it."""
        cache = make_system("cache")
        upc = build_workload(cache, "UPC", 1, requests=60)
        tally = {"measuring": False, True: 0, False: 0}
        access, begin = cache.cache.access, cache.begin_measurement

        def counted_access(page):
            hit = access(page)
            if tally["measuring"]:
                tally[hit] += 1
            return hit

        def counted_begin():
            begin()
            tally.update({"measuring": True, True: 0, False: 0})

        cache.cache.access = counted_access
        cache.begin_measurement = counted_begin
        run_workload(cache, upc.operations[:30], concurrency=4)
        stats = run_workload(cache, upc.operations[30:], concurrency=4)
        hits, misses = tally[True], tally[False]
        assert hits and misses
        assert stats.metrics["gauges"]["client0.cache.hit_ratio"] == \
            hits / (hits + misses)


class TestCacheRpcSystem:
    def test_traversal_correct(self):
        aifm = CacheRpcSystem()
        table = HashTable(aifm.memory, buckets=4, value_bytes=16)
        for key in range(40):
            table.insert(key, key.to_bytes(16, "little"))
        result = run(aifm, table.find_iterator(), 25)
        assert result.value == (25).to_bytes(16, "little")

    def test_cold_requests_offload(self):
        aifm = CacheRpcSystem(params=with_memory(cache_bytes=1 << 14))
        table = HashTable(aifm.memory, buckets=2, value_bytes=8)
        for key in range(200):
            table.insert(key, b"xxxxxxxx")
        finder = table.find_iterator()
        for key in (3, 77, 150):
            run(aifm, finder, key)
        # Uniform lookups over a big table: everything offloads.
        assert counter_value(
            aifm, "client0.objcache.offloaded_requests") == 3
        # each walk stopped at its first non-resident object
        assert counter_value(aifm, "client0.objcache.misses") == 3

    def test_object_cache_counts_in_the_registry(self):
        """A one-object cache holds the object each offload started at:
        the second lookup hits the head (then offloads at the next
        node), the third misses the evicted head."""
        aifm = CacheRpcSystem(params=with_memory(cache_bytes=256))
        lst = populate_list(aifm, n=5)
        finder = lst.find_iterator()
        for key in (5, 5, 4):
            run(aifm, finder, key)
        snapshot = aifm.metrics_snapshot()
        assert [snapshot["counters"][f"client0.objcache.{name}"]
                for name in ("hits", "misses", "evictions")] == [1, 3, 2]
        assert snapshot["gauges"]["client0.objcache.hit_ratio"] == 1 / 4

    def test_single_node_only(self):
        aifm = CacheRpcSystem()
        assert aifm.node_count == 1


class TestCrossSystemCorrectness:
    """All systems must compute identical answers on the same workload."""

    def test_same_answers_everywhere(self):
        answers = {}
        for name, factory in [
            ("pulse", lambda: PulseCluster(node_count=1)),
            ("rpc", lambda: RpcSystem(node_count=1)),
            ("rpc-w", lambda: RpcSystem(node_count=1, wimpy=True)),
            ("cache", lambda: CacheSystem(node_count=1)),
            ("aifm", lambda: CacheRpcSystem()),
        ]:
            system = factory()
            table = HashTable(system.memory, buckets=8, value_bytes=8)
            for key in range(100):
                table.insert(key, (key * 3).to_bytes(8, "little"))
            finder = table.find_iterator()
            answers[name] = [
                run(system, finder, key).value for key in (5, 50, 99, 1234)
            ]
        reference = answers.pop("pulse")
        for name, values in answers.items():
            assert values == reference, name
