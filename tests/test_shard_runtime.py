"""Unit tests for the sharded-execution building blocks.

Covers the engine's window barrier (gate, hook, ``run_window``,
``schedule_at``), the deterministic export router, snapshot merging,
lookahead derivation, and the cluster-facing guard rails -- everything
below the full differential suite in ``test_shard_differential.py``.
"""

import pytest

from repro.core import PulseCluster
from repro.params import NetworkParams, SystemParams
from repro.shard import ShardError, WireFrame, lookahead_ns, merge_snapshots
from repro.shard.runtime import ShardRouter
from repro.sim.engine import Environment, SimulationError


class TestWindowBarrier:
    def test_run_stops_at_window_end_without_hook_extension(self):
        env = Environment()
        fired = []

        def proc():
            for _ in range(5):
                yield env.timeout(10.0)
                fired.append(env.now)

        env.process(proc())
        windows = []

        def hook(limit=float("inf")):
            # Extend the window to peek+15 twice, then refuse: the env
            # must stop even though events remain queued.
            if len(windows) >= 2:
                return False
            windows.append(env.window_end)
            env.advance_window(env.peek() + 15.0)
            return True

        env.set_window_hook(hook, window_end=0.0)
        env.run()
        # The process-start event sits at t=0, so the first window is
        # [0,15) firing 0 and 10; the second [15,35) fires 20 and 30;
        # the event at 40 stays queued when the hook refuses to extend.
        assert fired == [10.0, 20.0, 30.0]
        assert windows == [0.0, 15.0]
        assert env.peek() == 40.0

    def test_run_until_event_raises_when_hook_refuses(self):
        env = Environment()
        blocked = env.event()
        env.set_window_hook(lambda limit=float("inf"): False,
                            window_end=0.0)
        with pytest.raises(SimulationError):
            env.run(until=blocked)

    def test_run_window_executes_strictly_before_horizon(self):
        env = Environment()
        fired = []

        def proc():
            while True:
                yield env.timeout(10.0)
                fired.append(env.now)

        env.process(proc())
        env.run_window(30.0)
        assert fired == [10.0, 20.0]
        env.run_window(31.0)
        assert fired == [10.0, 20.0, 30.0]

    def test_schedule_at_rejects_past_times(self):
        env = Environment()
        env.run_window(0.0)
        event = env.event()
        env.schedule_at(event, 5.0)
        with pytest.raises(SimulationError):
            env.schedule_at(env.event(), -1.0)

    def test_advance_window_is_monotone(self):
        env = Environment()
        env.set_window_hook(lambda limit=float("inf"): False,
                            window_end=10.0)
        with pytest.raises(SimulationError):
            env.advance_window(5.0)
        env.clear_window_hook()
        assert env.window_end == float("inf")

    def test_hook_installed_by_an_event_stops_the_drain(self):
        """A hook set from inside a callback gates the very next pop."""
        env = Environment()
        fired = []
        asked = []

        def hook(limit=float("inf")):
            # The event at t=10 is still queued when the hook is first
            # asked for a window; refuse the second time.
            asked.append((env.now, env.peek(), list(fired)))
            if len(asked) > 1:
                return False
            env.advance_window(15.0)
            return True

        def install(_event):
            fired.append(env.now)
            env.set_window_hook(hook)

        env.timeout(5.0).callbacks.append(install)
        for delay in (10.0, 20.0):
            env.timeout(delay).callbacks.append(
                lambda _event: fired.append(env.now))
        env.run()
        assert asked == [(5.0, 10.0, [5.0]), (10.0, 20.0, [5.0, 10.0])]
        assert fired == [5.0, 10.0]
        assert env.peek() == 20.0


class TestShardRouter:
    def test_export_order_and_ownership(self):
        router = ShardRouter(lambda name: name.startswith("client"), -1)
        assert router.owns("client0")
        assert not router.owns("mem1")
        router.export("a", 30.0)
        router.export("b", 10.0)
        frames = router.drain()
        assert [(f.message, f.seq) for f in frames] == [("a", 0),
                                                        ("b", 1)]
        assert router.drain() == []
        # Merge order is (arrival, src process, export seq).
        assert sorted(frames, key=WireFrame.sort_key)[0].message == "b"


class TestMergeSnapshots:
    def test_ownership_sum_and_ratio(self):
        base = {
            "now_ns": 100.0,
            "counters": {"client0.submitted": 5, "mem0.acc.requests": 0,
                         "mem10.acc.requests": 0,
                         "net.delivered_messages": 7},
            "gauges": {"net.delivery_ratio": 1.0,
                       "placement.hot.mem0": 0.0,
                       "placement.hot.peak": 0.0},
            "histograms": {"mem0.acc.span.logic": {"count": 0}},
        }
        workers = {
            0: {"counters": {"mem0.acc.requests": 4,
                             # mem1 is NOT worker 0's -- must not leak
                             "mem1.acc.requests": 9,
                             "net.delivered_messages": 3},
                "gauges": {"placement.hot.mem0": 2.5,
                           "placement.hot.peak": 2.5},
                "histograms": {"mem0.acc.span.logic": {"count": 4}}},
            1: {"counters": {"mem10.acc.requests": 6,
                             "net.delivered_messages": 2},
                "gauges": {"placement.hot.peak": 1.5},
                "histograms": {}},
        }
        merged = merge_snapshots(base, workers, {0: [0], 1: [10]})
        assert merged["counters"]["mem0.acc.requests"] == 4
        # 'mem1.' is not assigned to worker 0 and must not be claimed
        # via the 'mem10.' assignment either: prefixes are dot-delimited.
        assert "mem1.acc.requests" not in merged["counters"]
        assert merged["counters"]["mem10.acc.requests"] == 6
        assert merged["counters"]["net.delivered_messages"] == 12
        assert merged["gauges"]["net.delivery_ratio"] == 1.0
        assert merged["gauges"]["placement.hot.mem0"] == 2.5
        assert merged["gauges"]["placement.hot.peak"] == 2.5
        assert merged["histograms"]["mem0.acc.span.logic"]["count"] == 4
        assert merged["counters"]["client0.submitted"] == 5
        assert merged["now_ns"] == 100.0


class TestConfig:
    def test_lookahead_is_min_link_latency(self):
        params = SystemParams()
        expected = (params.network.segment_ns
                    + params.network.switch_process_ns)
        assert lookahead_ns(params) == expected

    def test_lookahead_rejects_zero_latency_fabric(self):
        params = SystemParams().with_overrides(
            network=NetworkParams(segment_ns=0.0, switch_process_ns=0.0))
        with pytest.raises(ShardError):
            lookahead_ns(params)


class TestClusterGuards:
    def test_membership_frozen_while_sharded(self):
        cluster = PulseCluster(node_count=2, seed=3)
        runtime = cluster.shard(workers=2)
        try:
            with pytest.raises(ShardError):
                cluster.add_node()
            with pytest.raises(ShardError):
                cluster.drain_node(0)
            with pytest.raises(ShardError):
                cluster.rebalance_once()
            with pytest.raises(ShardError):
                cluster.start_rebalancer()
            with pytest.raises(ShardError):
                cluster.shard(workers=2)
        finally:
            runtime.stop()

    def test_perturbations_are_replicated_factories_while_sharded(self):
        # A migration or crash on a sharded rack runs in every replica
        # as a shard(replicated=...) factory; the verbs refuse.
        cluster = PulseCluster(node_count=2, seed=3)
        start, end = cluster.memory.placement.rules_of(0)[0]
        runtime = cluster.shard(workers=2)
        try:
            with pytest.raises(ShardError):
                cluster.migrate(start, end, 1)
            with pytest.raises(ShardError):
                cluster.kill_node(1)
        finally:
            runtime.stop()

    def test_workers_clamped_to_node_count(self):
        cluster = PulseCluster(node_count=2, seed=3)
        runtime = cluster.shard(workers=8)
        try:
            assert runtime.workers == 2
            assert runtime.assignment == {0: [0], 1: [1]}
        finally:
            runtime.stop()

    def test_shutdown_is_idempotent(self):
        from repro.structures import LinkedList
        cluster = PulseCluster(node_count=2, seed=3)
        cluster.shutdown()  # never sharded: no-op
        chain = LinkedList(cluster.memory)
        chain.extend([(k, k + 100) for k in range(4)])
        cluster.shard(workers=2)
        result = cluster.run_traversal(chain.find_iterator(), 2)
        assert result.value == 102
        cluster.shutdown()
        cluster.shutdown()
        assert not cluster.sharded


def test_worker_stores_stay_out_of_the_coordinators_copy():
    """Workers are copy-on-write forks of the built rack: a STORE runs
    in the worker that owns the node, so later requests see it while
    the coordinator's own replica of that node keeps the pre-fork
    bytes.  A node backing shared across the fork would fail the last
    assertion."""
    from repro.structures import HashTable
    keys = range(32)
    cluster = PulseCluster(node_count=2, seed=3)
    table = HashTable(cluster.memory, buckets=16, value_bytes=8,
                      partition_nodes=2)
    for k in keys:
        table.insert(k, k.to_bytes(8, "little"))
    cluster.shard(workers=2)
    try:
        for k in keys:
            assert cluster.run_traversal(
                table.update_iterator(), k, 9_000 + k).value is True
        found = [cluster.run_traversal(table.find_iterator(), k).value
                 for k in keys]
    finally:
        cluster.shutdown()
    assert [int.from_bytes(v, "little") for v in found] == \
        [9_000 + k for k in keys]
    assert [int.from_bytes(table.find_reference(k), "little")
            for k in keys] == list(keys)


def test_lazy_shard_from_inside_a_running_process():
    """``cluster.shard`` called from inside a process that ``env.run``
    is already draining: the window hook has to take effect mid-run."""
    from repro.structures import HashTable

    def run(workers):
        cluster = PulseCluster(node_count=2, seed=3)
        table = HashTable(cluster.memory, buckets=16, partition_nodes=2)
        for k in range(50):
            table.insert(k, (1_000 + k).to_bytes(8, "little"))

        def driver():
            yield cluster.env.timeout(100.0)
            if workers:
                cluster.shard(workers)
            results = []
            for k in range(50):
                results.append((yield from cluster.traverse(
                    table.find_iterator(), k)))
            return results

        try:
            results = cluster.env.run(
                until=cluster.env.process(driver()))
            return results, cluster.sharded
        finally:
            cluster.shutdown()

    baseline, sharded = run(0)
    assert not sharded
    results, sharded = run(2)
    assert sharded
    assert all(r.ok for r in results)
    assert [r.value for r in results] == [r.value for r in baseline]
    assert [r.latency_ns for r in results] == \
        [r.latency_ns for r in baseline]
