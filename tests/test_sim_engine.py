"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim import Environment, SimulationError


def test_timeout_advances_clock():
    env = Environment()
    done = []

    def proc():
        yield env.timeout(10)
        done.append(env.now)
        yield env.timeout(5)
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [10, 15]


def test_timeout_value_is_delivered():
    env = Environment()
    seen = []

    def proc():
        value = yield env.timeout(3, value="hello")
        seen.append(value)

    env.process(proc())
    env.run()
    assert seen == ["hello"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def proc(name, delay):
        yield env.timeout(delay)
        order.append(name)

    env.process(proc("c", 30))
    env.process(proc("a", 10))
    env.process(proc("b", 20))
    env.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fifo():
    env = Environment()
    order = []

    def proc(name):
        yield env.timeout(5)
        order.append(name)

    for name in "abcd":
        env.process(proc(name))
    env.run()
    assert order == list("abcd")


def test_process_return_value():
    env = Environment()

    def child():
        yield env.timeout(7)
        return 42

    def parent():
        result = yield env.process(child())
        return result

    proc = env.process(parent())
    value = env.run(until=proc)
    assert value == 42
    assert env.now == 7


def test_manual_event_signalling():
    env = Environment()
    signal = env.event()
    log = []

    def waiter():
        value = yield signal
        log.append((env.now, value))

    def trigger():
        yield env.timeout(12)
        signal.succeed("go")

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert log == [(12, "go")]


def test_event_cannot_trigger_twice():
    env = Environment()
    signal = env.event()
    signal.succeed(1)
    with pytest.raises(SimulationError):
        signal.succeed(2)


def test_failed_event_raises_in_waiter():
    env = Environment()
    signal = env.event()
    caught = []

    def waiter():
        try:
            yield signal
        except RuntimeError as exc:
            caught.append(str(exc))

    def trigger():
        yield env.timeout(1)
        signal.fail(RuntimeError("boom"))

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_propagates_via_run_until():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise ValueError("bad process")

    proc = env.process(bad())
    with pytest.raises(ValueError, match="bad process"):
        env.run(until=proc)


def test_yield_already_processed_event_resumes_immediately():
    env = Environment()
    signal = env.event()
    signal.succeed("early")
    log = []

    def waiter():
        yield env.timeout(5)
        value = yield signal  # already processed by now
        log.append((env.now, value))

    env.process(waiter())
    env.run()
    assert log == [(5, "early")]


def test_run_until_time_stops_clock_exactly():
    env = Environment()
    ticks = []

    def ticker():
        while True:
            yield env.timeout(10)
            ticks.append(env.now)

    env.process(ticker())
    env.run(until=35)
    assert ticks == [10, 20, 30]
    assert env.now == 35


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=50)
    with pytest.raises(SimulationError):
        env.run(until=10)


def test_run_until_event_deadlock_detected():
    env = Environment()
    never = env.event()
    with pytest.raises(SimulationError, match="deadlock"):
        env.run(until=never)


def test_any_of_fires_on_first():
    env = Environment()
    results = []

    def proc():
        t_fast = env.timeout(5, value="fast")
        t_slow = env.timeout(50, value="slow")
        fired = yield env.any_of([t_fast, t_slow])
        results.append((env.now, list(fired.values())))

    env.process(proc())
    env.run()
    assert results == [(5, ["fast"])]


def test_all_of_waits_for_every_event():
    env = Environment()
    results = []

    def proc():
        events = [env.timeout(d, value=d) for d in (5, 1, 9)]
        fired = yield env.all_of(events)
        results.append((env.now, sorted(fired.values())))

    env.process(proc())
    env.run()
    assert results == [(9, [1, 5, 9])]


def test_all_of_empty_fires_immediately():
    env = Environment()
    results = []

    def proc():
        yield env.all_of([])
        results.append(env.now)

    env.process(proc())
    env.run()
    assert results == [0]


def test_yielding_non_event_is_error():
    env = Environment()

    def bad():
        yield 42

    proc = env.process(bad())
    with pytest.raises(SimulationError):
        env.run()


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(30)
    env.timeout(10)
    assert env.peek() == 10


def test_fork_join_pattern():
    env = Environment()

    def worker(delay):
        yield env.timeout(delay)
        return delay * 2

    def coordinator():
        children = [env.process(worker(d)) for d in (3, 1, 2)]
        results = yield env.all_of(children)
        return sorted(results.values())

    proc = env.process(coordinator())
    assert env.run(until=proc) == [2, 4, 6]
    assert env.now == 3


def test_process_is_alive_lifecycle():
    env = Environment()

    def proc():
        yield env.timeout(10)

    p = env.process(proc())
    assert p.is_alive
    env.run()
    assert not p.is_alive
    assert p.ok
