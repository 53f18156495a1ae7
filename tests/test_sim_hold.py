"""``Resource.hold`` against the generator spelling it replaced.

A schedule is a set of processes; each arrives at an integer time and
runs a list of stages, each on one of a few shared resources.  A stage is
a timed stage (duration, optional follow-on delay), a chained pair of
timed stages on two resources (one ``hold(..., chain=...)`` against two
reference stages back to back), or a critical section (``request`` /
wait / ``release``, spelled out in both runs).
The same schedule runs twice -- timed stages through ``Resource.hold``,
then through :func:`tests.helpers.reference_hold` -- and must produce the
same log of (process, stage, completion time) *in the same global order*
and the same ``utilization()`` of every resource.  Integer times make
ties the norm: events at one timestamp run in push order, so the log
order is exactly what the four ordering rules of ``Resource.hold``
protect.

The one thing ``hold`` changes is *when* its hold-end entry is pushed:
at hold start, where the generator pushed a grant entry and only on
popping that pushed the end.  An entry that another process pushes in
that one-event gap, due at the very same instant as the hold end,
therefore sorts after the hold end instead of before it.  That takes a
delay that starts in the gap and equals the hold's duration exactly: a
follow-on ``then``, a critical section's length, or -- against a
zero-length hold -- a ``request()`` grant, which is a zero-delay entry.
So the schedules draw hold durations from one parity and every other
delay from the other, and mix critical sections in only when holds
cannot be zero-length (``test_known_difference_from_the_generator_
spelling`` pins the excluded case).  None of the modeled stage constants
coincide like that, which ``tests/test_modeled_identity.py`` holds end
to end.
"""

import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.engine import Environment, SimulationError
from repro.sim.resources import Resource

from tests.helpers import reference_hold

COMMON = settings(max_examples=300,
                  suppress_health_check=[HealthCheck.too_slow],
                  deadline=None)


def run_schedule(capacities, processes, use_hold):
    """Run one schedule; returns (completion log, utilizations, end time).

    ``processes`` is a list of ``(arrival, stages)``; a stage is
    ``("hold", resource, duration, then)``, ``("chain", resource,
    duration, second resource, second duration, then)`` or ``("section",
    resource, length)``.
    """
    env = Environment()
    resources = [Resource(env, capacity) for capacity in capacities]
    log = []

    def process(pid, arrival, stages):
        yield env.timeout(arrival)
        for index, stage in enumerate(stages):
            resource = resources[stage[1]]
            if stage[0] == "section":
                grant = resource.request()
                yield grant
                yield env.timeout(stage[2])
                resource.release(grant)
            elif stage[0] == "chain":
                second = resources[stage[3]]
                if use_hold:
                    yield resource.hold(
                        stage[2], chain=(second, stage[4], stage[5]))
                else:
                    yield from reference_hold(env, resource, stage[2])
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
    return log, [r.utilization() for r in resources], env.now


@st.composite
def schedules(draw):
    """Tie-heavy schedules inside the equivalence class (see module doc).

    Hold durations have one parity, ``then`` and section lengths the
    other.  Even holds (0, 2, 4) meet odd tails and no sections; odd
    holds meet even tails (0, 2, 4) and sections of even length sharing
    the holds' queues -- so zero-length holds, zero-length ``then`` and
    mixed queues all occur.  Both stages of a chained pair are holds:
    hold parity for the two durations, the other for the tail.
    """
    hold_parity = draw(st.integers(0, 1))
    hold_ns = st.integers(0, 2).map(lambda k: 2 * k + hold_parity)
    other_ns = st.integers(0, 2).map(lambda k: 2 * k + 1 - hold_parity)
    capacities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    resource = st.integers(0, len(capacities) - 1)
    stages = [st.tuples(st.just("hold"), resource, hold_ns,
                        st.one_of(st.none(), other_ns)),
              st.tuples(st.just("chain"), resource, hold_ns, resource,
                        hold_ns, st.one_of(st.none(), other_ns))]
    if hold_parity == 1:
        stages.append(st.tuples(st.just("section"), resource, other_ns))
    processes = draw(st.lists(
        st.tuples(st.integers(0, 4),
                  st.lists(st.one_of(stages), min_size=1, max_size=4)),
        min_size=1, max_size=8))
    return capacities, processes


class TestDifferential:
    @COMMON
    @given(schedules())
    def test_same_completions_same_order_same_utilization(self, schedule):
        capacities, processes = schedule
        held = run_schedule(capacities, processes, use_hold=True)
        reference = run_schedule(capacities, processes, use_hold=False)
        assert held == reference

    def test_the_strategy_produces_ties_queues_and_zero_lengths(self):
        """The differential is only as good as its schedules."""
        seen = {"tie": False, "queued": False, "zero_hold": False,
                "zero_then": False, "mixed": False, "chained": False}

        @settings(max_examples=200, deadline=None, database=None,
                  suppress_health_check=list(HealthCheck))
        @given(schedules())
        def scan(schedule):
            capacities, processes = schedule
            log, utilizations, _end = run_schedule(capacities, processes,
                                                   use_hold=True)
            times = [t for _pid, _index, t in log]
            seen["tie"] |= len(set(times)) < len(times)
            stages = [s for _arrival, ss in processes for s in ss]
            holds = [s for s in stages if s[0] == "hold"]
            chains = [s for s in stages if s[0] == "chain"]
            seen["zero_hold"] |= any(s[2] == 0 for s in holds + chains)
            seen["zero_then"] |= any(s[-1] == 0 for s in holds + chains)
            seen["chained"] |= any(s[1] != s[3] for s in chains)
            for index in range(len(capacities)):
                kinds = {s[0] for s in stages if s[1] == index}
                seen["mixed"] |= "section" in kinds and len(kinds) > 1
            seen["queued"] |= any(u == 1.0 for u in utilizations)

        scan()
        assert all(seen.values()), seen


def run_named(build):
    """Run ``build(env, start)`` once per spelling; returns the two logs.

    ``start(resource, duration, then, chain)`` is the timed stage under
    test, to be yielded from; ``build`` returns the log it appends to.
    """
    logs = []
    for use_hold in (True, False):
        env = Environment()

        def stage(resource, duration, then=None, chain=None,
                  use_hold=use_hold, env=env):
            if use_hold:
                yield resource.hold(duration, then, chain)
            else:
                yield from reference_hold(env, resource, duration, then)
                if chain is not None:
                    yield from reference_hold(env, *chain)

        log = build(env, stage)
        env.run()
        logs.append(log)
    return logs


class TestOrderingRules:
    def test_rule_1_hold_end_is_pushed_when_the_hold_starts(self):
        """A queued waiter's end is scheduled from its predecessor's hold
        end, so a fresh arrival that started a tick earlier in the same
        instant finishes first.  Precomputing ``max(now, free_at) +
        duration`` at the waiter's arrival would push its end entry
        before the fresh arrival's and swap them."""
        def build(env, stage):
            log = []
            shared, other = Resource(env), Resource(env)

            def fresh():
                yield env.timeout(2)
                yield from stage(other, 3)
                log.append(("fresh", env.now))

            def first():
                yield from stage(shared, 2)
                log.append(("first", env.now))

            def waiter():
                yield env.timeout(1)
                yield from stage(shared, 3)   # queued until t = 2
                log.append(("waiter", env.now))

            for body in (fresh, first, waiter):
                env.process(body())
            return log

        held, reference = run_named(build)
        assert held == [("first", 2), ("fresh", 5), ("waiter", 5)]
        assert held == reference

    def test_rule_2_zero_then_is_its_own_heap_entry(self):
        """``then=0.0`` still goes back through the heap, behind whatever
        was already due at that instant; ``then=None`` does not."""
        def build_with(then):
            def build(env, stage):
                log = []
                a, b = Resource(env), Resource(env)

                def tailed():
                    yield from stage(a, 1, then)
                    log.append("tailed")

                def plain():
                    yield from stage(b, 1)
                    log.append("plain")

                env.process(tailed())
                env.process(plain())
                return log
            return build

        held, reference = run_named(build_with(0.0))
        assert held == ["plain", "tailed"]
        assert held == reference
        held, reference = run_named(build_with(None))
        assert held == ["tailed", "plain"]
        assert held == reference

    def test_rule_3_next_waiter_starts_before_the_holder_resumes(self):
        """At hold end the server is freed and the queued waiter started
        first; only then does the holder go on -- so the holder sees the
        server already re-occupied, and of two stages due at the same
        later instant the waiter's ends first."""
        def build(env, stage):
            log = []
            shared, other = Resource(env), Resource(env)

            def holder():
                yield from stage(shared, 1)
                log.append(("holder resumed", shared.in_use,
                            shared.queue_length))
                yield from stage(other, 1)
                log.append(("holder", env.now))

            def waiter():
                yield from stage(shared, 1)
                log.append(("waiter", env.now))

            env.process(holder())
            env.process(waiter())
            return log

        held, reference = run_named(build)
        assert held == [("holder resumed", 1, 0),
                        ("waiter", 2), ("holder", 2)]
        assert held == reference

    def test_rule_3_next_waiter_is_granted_before_the_then_entry(self):
        """With a follow-on delay the same order holds between the
        waiter's start and the holder's ``then`` entry: a queued
        ``request()`` is granted ahead of a zero-length tail."""
        def build(env, stage):
            log = []
            shared = Resource(env)

            def holder():
                yield from stage(shared, 1, 0)
                log.append("holder")

            def waiter():
                grant = shared.request()
                yield grant
                log.append("waiter granted")
                shared.release(grant)

            env.process(holder())
            env.process(waiter())
            return log

        held, reference = run_named(build)
        assert held == ["waiter granted", "holder"]
        assert held == reference

    def test_rule_4_chained_stage_joins_in_the_holders_resume_slot(self):
        """The chained stage is enqueued while the first stage's hold
        end is processed: after the queued waiter was started (whose end,
        due at the same instant, therefore comes first) and ahead of
        ``late``, whose own entry at that timestamp was pushed later and
        so finds the second resource already taken."""
        def build(env, stage):
            log = []
            first, second = Resource(env), Resource(env)

            def holder():
                yield from stage(first, 1, chain=(second, 1, None))
                log.append(("holder", env.now))

            def waiter():
                yield from stage(first, 1)
                log.append(("waiter", env.now))

            def late():
                yield env.timeout(0.5)
                yield env.timeout(0.5)   # pushed after every t = 0 push
                log.append(("late arrives", second.in_use))
                yield from stage(second, 1)
                log.append(("late", env.now))

            for body in (holder, waiter, late):
                env.process(body())
            return log

        held, reference = run_named(build)
        assert held == [("late arrives", 1), ("waiter", 2), ("holder", 2),
                        ("late", 3)]
        assert held == reference

    def test_known_difference_from_the_generator_spelling(self):
        """The boundary of the equivalence: ``late`` starts a zero-length
        hold in the same instant in which ``early``'s hold ends with a
        zero-length ``then``.  The generator spelling gave ``late`` a
        grant entry first, so ``early``'s tail got ahead of it; ``hold``
        pushes ``late``'s end entry at once.  Same times, other order."""
        def build(env, stage):
            log = []
            a, b = Resource(env), Resource(env)

            def late():
                yield env.timeout(1)
                yield from stage(b, 0)
                log.append(("late", env.now))

            def early():
                yield from stage(a, 1, 0)
                log.append(("early", env.now))

            env.process(late())
            env.process(early())
            return log

        held, reference = run_named(build)
        assert held == [("late", 1), ("early", 1)]
        assert reference == [("early", 1), ("late", 1)]


class TestHoldApi:
    def test_holds_and_requests_share_one_fifo(self):
        env = Environment()
        resource = Resource(env)
        order = []

        def holder(name, duration):
            yield resource.hold(duration)
            order.append((name, env.now))

        def section(name, duration):
            grant = resource.request()
            yield grant
            yield env.timeout(duration)
            resource.release(grant)
            order.append((name, env.now))

        env.process(holder("h1", 2))
        env.process(section("s1", 3))
        env.process(holder("h2", 1))
        env.run(until=1)
        assert resource.in_use == 1 and resource.queue_length == 2
        env.run()
        assert order == [("h1", 2), ("s1", 5), ("h2", 6)]
        assert resource.utilization() == 1.0

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

    def test_a_chained_hold_takes_no_then_of_its_own(self):
        resource = Resource(Environment())
        with pytest.raises(SimulationError):
            resource.hold(1.0, then=0.0, chain=(resource, 1.0, None))
        assert resource.in_use == 0 and resource.queue_length == 0

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
        env.run(until=4.5)   # b's second stage waits behind a's
        assert (first.in_use, second.in_use) == (0, 1)
        assert second.queue_length == 1
        env.run()
        assert done == [("a", 6), ("b", 9)]
        assert first.utilization() == 4 / 9
        assert second.utilization() == 6 / 9


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
        resource) on one shared resource."""
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
        assert shared.in_use == 0 and shared.queue_length == 0
        return calls

    def test_uncontended_hold_is_two_calls(self):
        stages = [(1.0, None, None), (2.0, 0.5, None), (0.0, 0.0, None)]
        calls = self.kernel_calls(4, stages * 5, processes=4)
        assert len(calls) <= 2 * 15 * 4, sorted(set(calls))
        assert set(calls) == {"hold", "_finish_hold"}

    def test_queued_hold_is_at_most_three_calls(self):
        stages = [(1.0, None, None), (2.0, 0.5, None)]
        calls = self.kernel_calls(1, stages * 5, processes=4)
        assert len(calls) <= 3 * 10 * 4, sorted(set(calls))
        assert set(calls) == {"hold", "_finish_hold"}

    def test_chained_pair_is_three_calls(self):
        stages = [(1.0, None, (2.0, None)), (1.0, None, (0.0, 0.5))]
        for capacity in (1, 4):   # second stage queued / uncontended
            calls = self.kernel_calls(capacity, stages * 5, processes=4)
            assert len(calls) <= 3 * 10 * 4, sorted(set(calls))
            assert set(calls) == {"hold", "_finish_hold"}
