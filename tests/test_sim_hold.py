"""``Resource.hold`` against the generator spelling it replaced.

A schedule is a set of processes; each arrives at some time and runs a
list of stages, each on one of a few shared resources.  A stage is a
timed stage (duration, optional follow-on delay) or a chained pair of
timed stages on two resources (one ``hold(..., chain=...)`` against two
reference stages back to back).  The same schedule runs twice -- timed
stages through ``Resource.hold``, then through
:func:`tests.helpers.reference_hold` (request, wait for the grant, wait
out the duration, release) -- and must produce the same log of
(process, stage, completion time), with bit-equal times, and the same
``utilization()`` of every resource to 1e-9 (busy time is summed in
another order).

``hold`` is a FIFO server in closed form: a visit's start is ``max(now,
earliest free time)``, and its completion entry is pushed at the visit,
where the generator pushed its end only once the grant was popped.  The
times are the same floats; what differs is the order of completions that
fall in the same instant, so the schedules draw lengths at which no
process completes a stage or reaches a chain's second stage in an
instant another one meets too (and reject the draws where one does).  ``TestTieRule`` pins the order
``hold`` gives such ties: same-instant completions run in visit order.
"""

import math
import sys
from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.sim.engine import Environment, SimulationError
from repro.sim.resources import Resource

from tests.helpers import reference_hold

COMMON = settings(max_examples=300,
                  suppress_health_check=[HealthCheck.too_slow,
                                         HealthCheck.filter_too_much],
                  deadline=None)

#: lengths are multiples of 1/65537: sums of a few of them rarely meet
UNIT = 65537.0


def run_schedule(capacities, processes, use_hold):
    """Run one schedule; returns (completion log, utilizations, end time,
    join log).

    ``processes`` is a list of ``(arrival, stages)``; a stage is
    ``("hold", resource, duration, then)`` or ``("chain", resource,
    duration, second resource, second duration, then)``.  The join log
    holds the ``(process, stage, time)`` at which a chain's second stage
    was reached; only the reference spelling can see it.
    """
    env = Environment()
    resources = [Resource(env, capacity) for capacity in capacities]
    log, joins = [], []

    def process(pid, arrival, stages):
        yield env.timeout(arrival)
        for index, stage in enumerate(stages):
            resource = resources[stage[1]]
            if stage[0] == "chain":
                second = resources[stage[3]]
                if use_hold:
                    yield resource.hold(
                        stage[2], chain=(second, stage[4], stage[5]))
                else:
                    yield from reference_hold(env, resource, stage[2])
                    joins.append((pid, index, env.now))
                    yield from reference_hold(env, second, stage[4],
                                              stage[5])
            elif use_hold:
                yield resource.hold(stage[2], stage[3])
            else:
                yield from reference_hold(env, resource, stage[2], stage[3])
            log.append((pid, index, env.now))

    for pid, (arrival, stages) in enumerate(processes):
        env.process(process(pid, arrival, stages))
    env.run()
    return log, [r.utilization() for r in resources], env.now, joins


def coincide(processes, reference):
    """Whether, in the reference run, a process completes a stage or
    reaches a chain's second stage in an instant in which another one
    does or arrives (the two spellings may order such a pair
    differently; arrivals alone are timeouts, ordered alike in both)."""
    log, _utilizations, _end, joins = reference
    arrived, met = {}, {}
    for pid, (arrival, _stages) in enumerate(processes):
        arrived.setdefault(arrival, set()).add(pid)
    for pid, _index, when in log + joins:
        met.setdefault(when, set()).add(pid)
    return any(len(pids | arrived.get(when, set())) > 1
               for when, pids in met.items())


@st.composite
def schedules(draw):
    """Queue-heavy schedules with zero lengths and no coincidences.

    Lengths are 0 (one in four) or a multiple of ``1/UNIT`` between 1
    and 3; arrivals
    are such multiples below 4.  Both stages of a chained pair are
    holds, on any two resources (the same one too).
    """
    positive = st.integers(int(UNIT), 3 * int(UNIT)).map(lambda k: k / UNIT)
    length = st.one_of(st.just(0.0), positive, positive, positive)
    capacities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    resource = st.integers(0, len(capacities) - 1)
    stages = [st.tuples(st.just("hold"), resource, length,
                        st.one_of(st.none(), length)),
              st.tuples(st.just("chain"), resource, length, resource,
                        length, st.one_of(st.none(), length))]
    processes = draw(st.lists(
        st.tuples(st.integers(0, 4 * int(UNIT)).map(lambda k: k / UNIT),
                  st.lists(st.one_of(stages), min_size=1, max_size=4)),
        min_size=1, max_size=8))
    return capacities, processes


class TestDifferential:
    @COMMON
    @given(schedules())
    def test_same_completions_same_order_same_utilization(self, schedule):
        capacities, processes = schedule
        reference = run_schedule(capacities, processes, use_hold=False)
        assume(not coincide(processes, reference))
        log, utilizations, end, _joins = run_schedule(
            capacities, processes, use_hold=True)
        assert (log, end) == (reference[0], reference[2])
        assert utilizations == pytest.approx(reference[1], abs=1e-9)

    def test_the_strategy_produces_ties_queues_and_zero_lengths(self):
        """The differential is only as good as its schedules: the tie
        filter must see ties (so it is not vacuous), and what it keeps
        must still queue, chain across resources and hold zero lengths."""
        seen = {"tie": False, "queued": False, "zero_hold": False,
                "zero_then": False, "chained": False, "kept": 0}

        @settings(max_examples=200, deadline=None, database=None,
                  suppress_health_check=list(HealthCheck))
        @given(schedules())
        def scan(schedule):
            capacities, processes = schedule
            reference = run_schedule(capacities, processes, use_hold=False)
            if coincide(processes, reference):
                seen["tie"] = True
                return
            log = reference[0]
            seen["kept"] += 1
            stages = [s for _arrival, ss in processes for s in ss]
            seen["zero_hold"] |= any(s[2] == 0 for s in stages)
            seen["zero_then"] |= any(s[-1] == 0 for s in stages)
            seen["chained"] |= any(s[0] == "chain" and s[1] != s[3]
                                   for s in stages)
            # a process took longer than its stages: it queued
            for pid, (arrival, stages) in enumerate(processes):
                served = sum(s[2] + (s[4] if s[0] == "chain" else 0)
                             + (s[-1] or 0) for s in stages)
                last = max(t for p, _i, t in log if p == pid)
                seen["queued"] |= last - arrival > served + 1e-9

        scan()
        assert seen["kept"] >= 60 and all(seen.values()), seen


class TestTieRule:
    """Completions at one instant run in visit order: the order of the
    ``hold`` calls, or of the joins for a chain's second stage."""

    def test_a_queued_visit_completes_in_visit_order(self):
        """``waiter`` queues at t = 1 and ends at 5; ``fresh`` visits an
        idle resource at t = 2 and also ends at 5.  ``waiter`` visited
        first, so it completes first (the generator spelling, which
        pushed an end only when its server was granted, ran ``fresh``
        first)."""
        env = Environment()
        shared, other = Resource(env), Resource(env)
        log = []

        def visit(name, arrive, resource, duration):
            yield env.timeout(arrive)
            yield resource.hold(duration)
            log.append((name, env.now))

        env.process(visit("fresh", 2, other, 3))
        env.process(visit("first", 0, shared, 2))
        env.process(visit("waiter", 1, shared, 3))
        env.run()
        assert log == [("first", 2), ("waiter", 5), ("fresh", 5)]

    def test_a_zero_then_adds_no_entry(self):
        """``then=0.0`` and ``then=None`` are the same one entry: the
        first visitor completes first either way."""
        for then in (0.0, None):
            env = Environment()
            a, b = Resource(env), Resource(env)
            log = []

            def visit(name, resource, then):
                yield resource.hold(1, then)
                log.append(name)

            env.process(visit("tailed", a, then))
            env.process(visit("plain", b, None))
            env.run()
            assert log == ["tailed", "plain"]
            assert len(env._queue) == 0

    def test_a_freed_server_is_taken_in_visit_order(self):
        """``holder`` and ``waiter`` queue on ``shared`` at t = 0; at
        t = 1 ``holder`` goes on to ``other``.  Both end at 2, and
        ``waiter``, who visited first, completes first -- its server was
        booked at its visit, not handed over when ``holder`` finished."""
        env = Environment()
        shared, other = Resource(env), Resource(env)
        log = []

        def holder():
            yield shared.hold(1)
            log.append(("holder resumed", list(shared._free)))
            yield other.hold(1)
            log.append(("holder", env.now))

        def waiter():
            yield shared.hold(1)
            log.append(("waiter", env.now))

        env.process(holder())
        env.process(waiter())
        env.run()
        assert log == [("holder resumed", [2]), ("waiter", 2),
                       ("holder", 2)]

    def test_a_chain_joins_its_second_stage_in_visit_order(self):
        """The join entry is pushed at the visit, so it runs ahead of
        ``late``'s arrival at the same instant (pushed later), which
        finds the second resource booked; ``waiter`` shares the first
        resource and ends at the join's instant, after the join."""
        env = Environment()
        first, second = Resource(env), Resource(env)
        log = []

        def holder():
            yield first.hold(1, chain=(second, 1, None))
            log.append(("holder", env.now))

        def waiter():
            yield first.hold(1)
            log.append(("waiter", env.now, list(second._free)))

        def late():
            yield env.timeout(0.5)
            yield env.timeout(0.5)   # pushed after every t = 0 push
            log.append(("late arrives", list(second._free)))
            yield second.hold(1)
            log.append(("late", env.now))

        for body in (holder, waiter, late):
            env.process(body())
        env.run()
        assert log == [("late arrives", [2]), ("waiter", 2, [3]),
                       ("holder", 2), ("late", 3)]


class TestHoldApi:
    def test_mixing_holds_and_requests_raises(self):
        env = Environment()
        held, granted = Resource(env), Resource(env)
        held.hold(1)
        granted.request()
        with pytest.raises(SimulationError):
            held.request()
        with pytest.raises(SimulationError):
            granted.hold(1)
        with pytest.raises(SimulationError):
            held.hold(1, chain=(granted, 1, None))
        with pytest.raises(SimulationError):
            held.release(granted._users[0])

    def test_capacity_bounds_concurrent_holds(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        done = []

        def holder(name):
            yield resource.hold(4, then=1)
            done.append((name, env.now))

        for name in "abc":
            env.process(holder(name))
        env.run()
        assert done == [("a", 5), ("b", 5), ("c", 9)]

    def test_negative_lengths_are_rejected(self):
        resource = Resource(Environment())
        with pytest.raises(SimulationError):
            resource.hold(-1.0)
        with pytest.raises(SimulationError):
            resource.hold(1.0, then=-0.5)
        with pytest.raises(SimulationError):
            resource.hold(1.0, chain=(resource, -1.0, None))
        with pytest.raises(SimulationError):
            resource.hold(1.0, chain=(resource, 1.0, -0.5))

    def test_nan_lengths_are_rejected(self):
        """NaN passes ``< 0``; as a heap key it would break the order."""
        env = Environment()
        resource = Resource(env)
        for args in ((math.nan,), (1.0, math.nan),
                     (1.0, None, (resource, math.nan, None)),
                     (1.0, None, (resource, 1.0, math.nan))):
            with pytest.raises(SimulationError):
                resource.hold(*args)
        assert resource._busy_time == 0 and len(env._queue) == 0

    def test_a_chained_hold_takes_no_then_of_its_own(self):
        env = Environment()
        resource = Resource(env)
        with pytest.raises(SimulationError):
            resource.hold(1.0, then=0.0, chain=(resource, 1.0, None))
        assert resource._busy_time == 0 and len(env._queue) == 0

    def test_chain_returns_the_second_stages_event(self):
        """Both stages queue FIFO on their own resource; the caller is
        resumed once, ``then`` after the *second* stage ends."""
        env = Environment()
        first, second = Resource(env), Resource(env)
        done = []

        def holder(name):
            yield first.hold(2, chain=(second, 3, 1))
            done.append((name, env.now))

        for name in "ab":
            env.process(holder(name))
        env.run(until=4.5)   # b's second stage is booked behind a's
        assert (first._free, second._free) == ([4], [8])
        env.run()
        assert done == [("a", 6), ("b", 9)]
        assert first.utilization() == 4 / 9
        assert second.utilization() == 6 / 9

    def test_utilization_counts_busy_time_only_up_to_now(self):
        """Three holds of 2 are booked at t = 0; mid-queue only the time
        served so far is busy, and a window opened mid-queue counts
        from its start."""
        env = Environment()
        resource = Resource(env)
        for _ in range(3):
            resource.hold(2)
        env.run(until=1)
        assert resource.utilization() == 1.0
        env.run(until=3)
        resource.begin_window()
        env.run(until=5)
        assert resource.utilization() == 1.0
        env.run(until=10)
        assert resource.utilization() == pytest.approx(3 / 7)


class TestCallBudget:
    """The hold path is two straight-line functions; a refactor that
    re-grows it (a constructor, an accounting helper, ``schedule``) shows
    up here as Python-level calls, not just in a benchmark."""

    KERNEL_FILES = ("repro/sim/resources.py", "repro/sim/engine.py")
    #: the loop itself and the process resume are not the hold path
    EXCLUDED = {"run", "_drain", "_resume"}

    def kernel_calls(self, capacity, stages, processes):
        """Python-level calls inside the kernel's two files while
        ``processes`` processes each run ``stages`` holds (given as
        ``hold`` argument tuples, ``"second"`` standing for the second
        resource) on one shared resource.  Each resource's first hold
        makes it one of holds (``_serve_holds``), once."""
        env = Environment()
        shared, second = Resource(env, capacity), Resource(env, capacity)

        def body():
            for duration, then, chain in stages:
                if chain is not None:
                    chain = (second,) + chain
                yield shared.hold(duration, then, chain)

        for _ in range(processes):
            env.process(body())
        calls = []

        def profiler(frame, event, _arg):
            code = frame.f_code
            if (event == "call" and code.co_name not in self.EXCLUDED
                    and code.co_filename.endswith(self.KERNEL_FILES)):
                calls.append(code.co_name)

        sys.setprofile(profiler)
        try:
            env.run()
        finally:
            sys.setprofile(None)
        assert len(env._queue) == 0
        return Counter(calls)

    def test_uncontended_hold_is_one_call(self):
        stages = [(1.0, None, None), (2.0, 0.5, None), (0.0, 0.0, None)]
        calls = self.kernel_calls(4, stages * 5, processes=4)
        assert calls == Counter(hold=15 * 4, _serve_holds=1)

    def test_queued_hold_is_one_call(self):
        stages = [(1.0, None, None), (2.0, 0.5, None)]
        calls = self.kernel_calls(1, stages * 5, processes=4)
        assert calls == Counter(hold=10 * 4, _serve_holds=1)

    def test_chained_pair_is_two_calls(self):
        stages = [(1.0, None, (2.0, None)), (1.0, None, (0.0, 0.5))]
        for capacity in (1, 4):   # second stage queued / uncontended
            calls = self.kernel_calls(capacity, stages * 5, processes=4)
            assert calls == Counter(hold=10 * 4, _join=10 * 4,
                                    _serve_holds=2)
