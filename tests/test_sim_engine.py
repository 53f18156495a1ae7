"""Unit tests for the discrete-event simulation engine."""

import random
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim import Environment, SimulationError
from repro.sim.engine import CANCELLED, COMPACT_MIN


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
        value = yield env.timeout(3)
        seen.append((env.now, value))

    env.process(proc())
    env.run()
    assert seen == [(3, None)]


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
        t_fast = env.timeout(5)
        t_slow = env.timeout(50)
        fired = yield env.any_of([t_fast, t_slow])
        results.append((env.now, [t_fast, t_slow].index(*fired)))

    env.process(proc())
    env.run()
    assert results == [(5, 0)]


def test_all_of_waits_for_every_event():
    env = Environment()
    results = []

    def proc():
        events = [env.timeout(d) for d in (5, 1, 9)]
        fired = yield env.all_of(events)
        results.append((env.now, set(fired) == set(events)))

    env.process(proc())
    env.run()
    assert results == [(9, True)]


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
    assert not p.triggered
    env.run()
    assert p.triggered
    assert p.ok


# -- cancellable timers -------------------------------------------------------
def test_cancelled_timer_runs_no_callback():
    env = Environment()
    fired = []
    timer = env.timeout(10)
    timer.callbacks.append(fired.append)
    other = env.timeout(20)
    other.callbacks.append(fired.append)
    timer.cancel()
    env.run()
    assert fired == [other]
    assert env.now == 20
    assert not timer.processed


def test_cancelled_timer_drops_what_its_waiters_kept_alive():
    env = Environment()

    class Waiter:
        def observe(self, _event):
            raise AssertionError("a cancelled timer fired")

    waiter = Waiter()
    alive = weakref.ref(waiter)
    timer = env.timeout(10)
    timer.callbacks.append(waiter.observe)
    del waiter
    timer.cancel()
    assert alive() is None
    env.run()


def test_cancelling_a_processed_timer_is_a_no_op():
    env = Environment()
    timer = env.timeout(5)
    env.run()
    timer.cancel()
    timer.cancel()
    assert timer.processed
    assert env._cancelled == 0


def test_a_dead_entry_does_not_move_the_clock():
    env = Environment()
    env.timeout(5)
    env.timeout(50).cancel()
    env.run()
    assert env.now == 5
    assert env._cancelled == 0 and not env._queue


def test_compaction_sheds_dead_entries_and_keeps_order():
    env = Environment()
    fired = []
    timers = [env.timeout(t) for t in range(1, 301)]
    for timer in timers:
        timer.callbacks.append(lambda t: fired.append(env.now))
    for timer in timers[::3] + timers[1::3]:
        timer.cancel()
    assert len(env._queue) <= 2 * 100 + COMPACT_MIN
    env.run()
    assert fired == [float(t) for t in range(3, 301, 3)]


def _race_program():
    """A timer program, as the parameters of a seeded generator: seed,
    initial races, the chance (percent) that a reply cancels its timer,
    the longest reply delay, and a time to pause the run at."""
    return st.tuples(st.integers(0, 2**32), st.integers(1, 300),
                     st.integers(0, 100), st.integers(0, 30),
                     st.integers(0, 100))


def _run_race_program(program, cancel):
    """Run ``program``, cancelling through ``cancel(env, timer)``;
    returns the (time, timer id) fire log and each pause's ``now``.

    A race is a reply timer and a longer timeout timer.  A reply that
    fires cancels its race's timeout (at the program's rate) and any
    other pending timer (at a tenth of it), then starts up to two new
    races.  With integer delays, most fires tie with another entry.
    """
    seed, initial, percent, longest, pause = program
    rng = random.Random(seed)
    env = Environment()
    timers, log = [], []
    pending = {}  # ident -> None, in arming order

    def arm(delay, on_fire):
        timer = env.timeout(delay)
        ident = len(timers)
        timers.append(timer)
        pending[ident] = None
        timer.callbacks.append(lambda _t: on_fire(ident))
        return ident

    def timed_out(ident):
        log.append((env.now, ident))
        del pending[ident]

    def race():
        loser = arm(rng.randint(longest, 10 * longest + 10), timed_out)
        arm(rng.randint(0, longest), lambda ident: reply(ident, loser))

    def reply(ident, loser):
        timed_out(ident)
        if loser in pending and rng.randrange(100) < percent:
            del pending[loser]
            cancel(env, timers[loser])
        if pending and rng.randrange(1000) < percent:
            victim = list(pending)[rng.randrange(len(pending))]
            del pending[victim]
            cancel(env, timers[victim])
        for _ in range(rng.randint(0, 2) if len(timers) < 2000 else 0):
            race()

    for _ in range(initial):
        race()
    env.run(until=pause)
    paused = env.now
    env.run()
    return log, (paused, env.now)


@settings(max_examples=100, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_race_program())
def test_compaction_is_invisible_to_live_events(program):
    def compacting(env, timer):
        timer.cancel()
        live = sum(e[3].callbacks is not CANCELLED for e in env._queue)
        assert len(env._queue) <= 2 * live + COMPACT_MIN

    def reference(_env, timer):
        # only clear the callbacks; never count, never compact
        timer.callbacks = CANCELLED

    assert (_run_race_program(program, compacting)
            == _run_race_program(program, reference))
