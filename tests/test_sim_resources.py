"""Unit tests for Resource and Store."""

import pytest

from repro.sim import Environment, Resource, Store
from repro.sim.engine import SimulationError


class TestResource:
    def test_capacity_one_serializes_holders(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        log = []

        def holder(name, hold):
            req = resource.request()
            yield req
            log.append((name, "acquired", env.now))
            yield env.timeout(hold)
            resource.release(req)

        env.process(holder("a", 10))
        env.process(holder("b", 10))
        env.run()
        assert log == [("a", "acquired", 0), ("b", "acquired", 10)]

    def test_capacity_two_allows_parallel_holders(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        acquired_at = []

        def holder(hold):
            req = resource.request()
            yield req
            acquired_at.append(env.now)
            yield env.timeout(hold)
            resource.release(req)

        for _ in range(3):
            env.process(holder(10))
        env.run()
        assert acquired_at == [0, 0, 10]

    def test_fifo_grant_order(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        order = []

        def holder(name, arrive):
            yield env.timeout(arrive)
            req = resource.request()
            yield req
            order.append(name)
            yield env.timeout(100)
            resource.release(req)

        env.process(holder("first", 1))
        env.process(holder("second", 2))
        env.process(holder("third", 3))
        env.run()
        assert order == ["first", "second", "third"]

    def test_release_without_hold_is_error(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        req = resource.request()
        resource.release(req)
        with pytest.raises(SimulationError):
            resource.release(req)

    def test_utilization_accounting(self):
        env = Environment()
        resource = Resource(env, capacity=1)

        def holder():
            req = resource.request()
            yield req
            yield env.timeout(50)
            resource.release(req)
            yield env.timeout(50)

        env.process(holder())
        env.run()
        assert resource.utilization() == pytest.approx(0.5)

    def test_queue_length(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        resource.request()
        resource.request()
        resource.request()
        assert resource.in_use == 1
        assert resource.queue_length == 2

    def test_zero_capacity_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            Resource(env, capacity=0)


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)
        store.put("x")
        got = []

        def getter():
            item = yield store.get()
            got.append(item)

        env.process(getter())
        env.run()
        assert got == ["x"]

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        got = []

        def getter():
            item = yield store.get()
            got.append((env.now, item))

        def putter():
            yield env.timeout(25)
            store.put("late")

        env.process(getter())
        env.process(putter())
        env.run()
        assert got == [(25, "late")]

    def test_fifo_item_order(self):
        env = Environment()
        store = Store(env)
        for item in (1, 2, 3):
            store.put(item)
        got = []

        def getter():
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        env.process(getter())
        env.run()
        assert got == [1, 2, 3]

    def test_multiple_getters_fifo(self):
        env = Environment()
        store = Store(env)
        got = []

        def getter(name):
            item = yield store.get()
            got.append((name, item))

        env.process(getter("g1"))
        env.process(getter("g2"))

        def putter():
            yield env.timeout(1)
            store.put("a")
            store.put("b")

        env.process(putter())
        env.run()
        assert got == [("g1", "a"), ("g2", "b")]

    def test_capacity_overflow_raises(self):
        env = Environment()
        store = Store(env, capacity=1)
        store.put(1)
        with pytest.raises(SimulationError):
            store.put(2)

    def test_len_tracks_buffered_items(self):
        env = Environment()
        store = Store(env)
        store.put(1)
        store.put(2)
        assert len(store) == 2
