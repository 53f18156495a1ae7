"""Tests for workspace scheduling policies (section 4.2.3 / Supp B)."""

import pytest

from repro.core import PulseCluster
from repro.core.scheduling import FairWorkspacePool, FifoWorkspacePool
from repro.sim import Environment
from repro.structures import LinkedList


class TestPoolsDirectly:
    def _drain(self, env, pool, plan):
        """plan: list of (tenant, hold_time); returns grant order."""
        order = []

        def user(tag, tenant, hold):
            event = pool.acquire(tenant)
            core = yield event
            order.append(tag)
            yield env.timeout(hold)
            pool.release(core)

        for i, (tenant, hold) in enumerate(plan):
            env.process(user((i, tenant), tenant, hold))
        env.run()
        return order

    def test_fifo_serves_in_arrival_order(self):
        env = Environment()
        pool = FifoWorkspacePool(env, tokens=[0])
        order = self._drain(env, pool,
                            [(0, 10), (0, 10), (1, 10), (0, 10)])
        assert [tag[0] for tag in order] == [0, 1, 2, 3]

    def test_fair_alternates_between_tenants(self):
        env = Environment()
        pool = FairWorkspacePool(env, tokens=[0])
        # Tenant 0 floods first; tenant 1 arrives with one request.
        plan = [(0, 10)] * 5 + [(1, 10)]
        order = self._drain(env, pool, plan)
        # Under FIFO tenant 1 would be last; fair service lets it in
        # right after the in-flight request completes.
        position = [tag[1] for tag in order].index(1)
        assert position <= 2

    def test_fair_degenerates_to_fifo_for_one_tenant(self):
        env = Environment()
        pool = FairWorkspacePool(env, tokens=[0])
        order = self._drain(env, pool, [(7, 5)] * 6)
        assert [tag[0] for tag in order] == list(range(6))

    def test_all_grants_eventually_served(self):
        env = Environment()
        pool = FairWorkspacePool(env, tokens=[0, 1])
        order = self._drain(env, pool,
                            [(t % 3, 7) for t in range(30)])
        assert len(order) == 30
        assert pool.queue_length() == 0

    def test_served_per_tenant_accounting(self):
        env = Environment()
        pool = FairWorkspacePool(env, tokens=[0])
        self._drain(env, pool, [(0, 5)] * 4 + [(1, 5)] * 4)
        # First grant is immediate (not queued); the rest are recorded.
        served = pool.served_per_tenant
        assert sum(served.values()) == 7


class TestFairSchedulingEndToEnd:
    def _run(self, policy):
        from repro.params import AcceleratorParams, SystemParams

        # Shrink the accelerator (1 core, 2 workspaces) so requests
        # actually queue at the scheduler.
        params = SystemParams(
            accelerator=AcceleratorParams(cores=1, workspaces_per_core=2))
        cluster = PulseCluster(node_count=1, client_count=2,
                               scheduler_policy=policy, params=params)
        lst = LinkedList(cluster.memory)
        lst.extend((k, k) for k in range(1, 601))
        finder = lst.find_iterator()

        env = cluster.env
        heavy_latencies = []
        light_latencies = []

        def heavy_worker():
            for _ in range(6):
                result = yield from cluster.clients[0].traverse(
                    finder, 600)  # 600-hop scan
                heavy_latencies.append(result.latency_ns)

        def light_worker():
            yield env.timeout(60_000)  # arrive mid-flood
            for _ in range(10):
                result = yield from cluster.clients[1].traverse(
                    finder, 1)  # 1-hop lookup
                light_latencies.append(result.latency_ns)

        procs = [env.process(heavy_worker()) for _ in range(8)]
        procs.append(env.process(light_worker()))
        env.run(until=env.all_of(procs))
        return (sum(light_latencies) / len(light_latencies),
                sum(heavy_latencies) / len(heavy_latencies))

    def test_fair_policy_protects_light_tenant(self):
        fifo_light, fifo_heavy = self._run("fifo")
        fair_light, fair_heavy = self._run("fair")
        # The light tenant's lookups no longer wait behind the flood.
        assert fair_light < 0.6 * fifo_light
        # The heavy tenant pays at most a modest cost.
        assert fair_heavy < 1.5 * fifo_heavy

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="scheduler policy"):
            PulseCluster(node_count=1, scheduler_policy="lottery")
