"""Tests for multi-CPU-node racks."""

import pytest

from repro.bench.driver import run_workload
from repro.core import PulseCluster
from repro.structures import LinkedList

from tests.helpers import build_table, counter_value


class TestMultiClient:
    def test_clients_get_distinct_identities(self):
        cluster = PulseCluster(node_count=1, client_count=3)
        names = [c.name for c in cluster.clients]
        assert names == ["client0", "client1", "client2"]
        ids = [e.client_id for e in cluster.engines]
        assert ids == [0, 1, 2]

    def test_responses_route_to_the_issuing_client(self):
        cluster = PulseCluster(node_count=2, client_count=3)
        table = build_table(cluster, n=500, multiplier=11)
        finder = table.find_iterator()
        operations = [(finder, (key,)) for key in range(60)]
        stats = run_workload(cluster, operations, concurrency=6)
        assert stats.completed == 60
        assert stats.faults == 0
        for index, result in enumerate(stats.results):
            assert int.from_bytes(result.value, "little") == index * 11
        # Work spread across all client NICs.
        for client in cluster.clients:
            assert counter_value(
                cluster, f"net.{client.name}.rx_messages") > 0

    def test_more_clients_raise_throughput_when_client_bound(self):
        from repro.params import NetworkParams, SystemParams

        # An expensive client stack makes the CPU node the bottleneck.
        params = SystemParams(network=NetworkParams(
            dpdk_stack_ns=6_000.0))

        def throughput(clients):
            cluster = PulseCluster(node_count=2, client_count=clients,
                                   params=params)
            lst = LinkedList(cluster.memory)
            lst.extend((k, k) for k in range(1, 9))
            finder = lst.find_iterator()
            ops = [(finder, (8,))] * 400
            return run_workload(cluster, ops,
                                concurrency=96).throughput_per_s

        assert throughput(4) > 1.5 * throughput(1)

    def test_zero_clients_rejected(self):
        with pytest.raises(ValueError):
            PulseCluster(node_count=1, client_count=0)

    def test_request_ids_never_collide_across_clients(self):
        cluster = PulseCluster(node_count=1, client_count=4)
        ids = set()
        for engine in cluster.engines:
            for _ in range(50):
                request_id = engine.next_request_id()
                assert request_id not in ids
                ids.add(request_id)
