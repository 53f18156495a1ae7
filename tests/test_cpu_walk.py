"""The CPU-node walk: the client fallback, Cache and Cache+RPC share it.

Each host runs ``repro.core.iterator.walk`` with its own cost stages;
what they share is the iteration protocol, so a fault any of them can
hit ends the request with the same structured kind, and the window is
read once per iteration.
"""

import gc
from dataclasses import replace

import pytest

from repro.baselines import CacheRpcSystem, CacheSystem
from repro.bench.driver import run_open_loop
from repro.core import PulseCluster
from repro.core.iterator import TraversalResult
from repro.mem.translation import PERM_READ, PERM_WRITE
from repro.params import DEFAULT_PARAMS
from repro.structures import HashTable, LinkedList

from tests.helpers import counter_value

#: the offload engine rejects every kernel: each request takes the
#: client fallback
FALLBACK_PARAMS = DEFAULT_PARAMS.with_overrides(
    accelerator=replace(DEFAULT_PARAMS.accelerator, eta_max=0.01))


def populate_list(system, n=10):
    lst = LinkedList(system.memory)
    lst.extend((k, k * 10) for k in range(1, n + 1))
    return lst


def run(system, iterator, *args):
    process = system.env.process(system.traverse(iterator, *args))
    return system.env.run(until=process)


def set_node_permissions(system, perms):
    table = system.memory.nodes[0].table
    for entry in table.entries:
        entry.perms = perms
    table.version += 1


class TestProtectionFaults:
    """An unreadable range ends the request in a ``"protection"`` fault
    on every CPU-node host, instead of raising out of ``env.run``."""

    def test_cache_baseline(self):
        cache = CacheSystem(node_count=1)
        lst = populate_list(cache)
        set_node_permissions(cache, PERM_WRITE)
        result = run(cache, lst.find_iterator(), 5)
        assert result.fault.kind == "protection"
        # faulted before any page moved
        assert counter_value(cache, "client0.cache.pages_fetched") == 0

    def test_client_fallback(self):
        cluster = PulseCluster(node_count=1, params=FALLBACK_PARAMS)
        lst = populate_list(cluster)
        set_node_permissions(cluster, PERM_WRITE)
        result = cluster.run_traversal(lst.find_iterator(), 5)
        assert not result.offloaded
        assert result.fault.kind == "protection"

    def test_cache_rpc_local_phase(self):
        system = CacheRpcSystem()
        lst = populate_list(system)
        finder = lst.find_iterator()
        offset = finder.program.load_window[0]
        system.object_cache.fill(finder.init(5)[0] + offset)
        set_node_permissions(system, PERM_WRITE)
        result = run(system, finder, 5)
        assert result.fault.kind == "protection"
        assert counter_value(
            system, "client0.objcache.offloaded_requests") == 0

    def test_fallback_store_into_read_only_range(self):
        cluster = PulseCluster(node_count=1, params=FALLBACK_PARAMS)
        table = HashTable(cluster.memory, buckets=2, value_bytes=8)
        table.insert(5, (1).to_bytes(8, "little"))
        set_node_permissions(cluster, PERM_READ)
        result = cluster.run_traversal(table.update_iterator(), 5, 99)
        assert not result.offloaded
        assert result.fault.kind == "protection"


def test_fallback_reads_each_window_once(monkeypatch):
    cluster = PulseCluster(node_count=1, params=FALLBACK_PARAMS)
    lst = populate_list(cluster)
    finder = lst.find_iterator()
    reads = []
    read = cluster.memory.read

    def counted_read(vaddr, size):
        reads.append(size)
        return read(vaddr, size)

    monkeypatch.setattr(cluster.memory, "read", counted_read)
    result = cluster.run_traversal(finder, 5)
    assert (result.value, result.iterations) == (50, 5)
    assert reads == [finder.program.load_window[1]] * 5 == [24] * 5


def _results_alive() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects()
               if isinstance(obj, TraversalResult))


@pytest.mark.parametrize("system_cls", (PulseCluster, CacheSystem))
def test_open_loop_without_results_keeps_none(system_cls):
    """An open-loop run keeps no per-request result anywhere: not in
    the driver, and not in the system that served them."""
    system = system_cls(node_count=1)
    finder = populate_list(system).find_iterator()
    ops = [(finder, (1 + index % 10,)) for index in range(400)]
    stats = run_open_loop(system, ops, 200e3)
    assert stats.completed == 400
    assert _results_alive() < 50
