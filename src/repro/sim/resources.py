"""Shared-resource primitives for the simulation kernel.

Two primitives cover everything pulse models:

* :class:`Resource` -- ``capacity`` interchangeable servers with a FIFO
  queue; used for pipelines, NIC processing units, and CPU workers.  A
  fixed-duration stage is one :meth:`Resource.hold` call; an
  open-ended critical section is the ``request``/``release`` pair.
* :class:`Store` -- an unbounded buffer of items with blocking ``get``;
  an endpoint's ``inbox``, which collects the messages of a session that
  has no ``on_message`` handler.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Deque, List, Optional, Tuple

from repro.sim.engine import NORMAL, Environment, Event, SimulationError

#: allocation without a Python-level ``__init__``: ``Resource.hold``
#: fills its ``Hold`` and ``done`` event field by field
_new = object.__new__


class Hold(Event):
    """One timed stage on a :class:`Resource`: its hold-end heap entry.

    Scheduled when the hold *starts* (a server is free), ``duration``
    ahead; processing it frees the server.  ``done`` is the follow-on
    delay's own entry (None without one: the caller waits on the hold
    end itself); ``chain`` is ``(resource, hold)``, the stage to enqueue
    when this one ends.  Built field by field inside
    :meth:`Resource.hold`, the only place that makes one.
    """

    __slots__ = ("duration", "then", "done", "chain")


class Resource:
    """``capacity`` servers granted FIFO.

    A stage of fixed length is one call, driven by heap callbacks rather
    than process resumes::

        yield resource.hold(duration)         # occupy, then continue
        yield resource.hold(occupancy, tail)  # ... then wait ``tail`` more
        yield first.hold(a, chain=(second, b, tail))  # two stages, one wait

    ``request``/``release`` is *the* open-ended form, for a critical
    section whose length is only known once it has run::

        req = resource.request()
        yield req
        try:
            ... hold the resource ...
        finally:
            resource.release(req)

    Both kinds of waiter share one FIFO queue.  In a rack each resource
    is a :class:`~repro.sim.stages.Stage` built from its stage table
    (the ``one-stage-table`` row of ``tests/test_invariants.py``).
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        #: grant events (``request``) and :class:`Hold` s, one FIFO
        self._users: List[Event] = []
        self._waiting: Deque[Event] = deque()
        # Utilization accounting.
        self._busy_time = 0.0
        self._last_change = env.now
        # Busy-time window (see begin_window / utilization).
        self._window_start = env.now
        self._window_busy_base = 0.0

    def request(self) -> Event:
        req = Event(self.env)
        if len(self._users) < self.capacity:
            self._start(req)
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Event) -> None:
        if request not in self._users:
            raise SimulationError("releasing a request that does not hold "
                                  "this resource")
        self._free(request)

    def hold(self, duration: float, then: Optional[float] = None,
             chain: Optional[Tuple["Resource", float, Optional[float]]]
             = None, value: Any = None) -> Event:
        """Occupy one server FIFO for ``duration``; the returned event
        fires ``then`` ns after the server is freed, with ``value``.

        The timed-stage primitive: one FIFO server plus a delay, with no
        process resume in between.  ``chain=(resource, duration, then)``
        appends a second stage on another resource, again without a
        resume: the returned event is the *second* stage's, and the
        first takes no ``then`` of its own.  Four ordering rules make a
        stage behave exactly like ``request -> yield grant -> yield
        timeout(duration) -> release -> yield timeout(then)``, and a
        chain like two of those back to back (events at equal timestamps
        run in push order, so each rule is observable):

        1. the hold-end entry is pushed when the hold *starts* -- here if
           a server is free, else while the predecessor's hold end is
           processed -- never precomputed at arrival;
        2. ``then`` is its own heap entry, pushed when the hold ends,
           even when it is ``0.0``; ``None`` means no delay stage, and
           the returned event *is* the hold-end entry;
        3. at hold end the server is freed and the next waiter started
           first, then the holder continues (resume, ``then`` entry, or
           chained stage);
        4. a chained stage joins its resource while the first stage's
           hold end is processed, right after rule 3's hand-over -- the
           slot in which the resumed holder would have called ``hold``
           -- so it is ahead of everything pushed later in that instant.

        A hold is not a critical section: once queued it runs to its
        end whatever becomes of the process waiting on it.

        This and :meth:`_finish_hold` are the whole hold path, and
        straight-line on purpose (the call-budget test in
        ``tests/test_sim_hold.py``): events are built field by field
        and pushed onto ``env._queue`` directly, at the points and in
        the order ``_start`` / ``Environment.schedule`` would.
        """
        if duration < 0 or (then is not None and then < 0):
            raise SimulationError(
                f"negative hold: duration={duration}, then={then}")
        env = self.env
        first = last = _new(Hold)
        first.env = env
        first.callbacks = [self._finish_hold]
        first._value = None
        first._ok = True
        first._defused = False
        first.duration = duration
        first.then = then
        first.done = first.chain = None
        if chain is not None:
            if then is not None:
                raise SimulationError("a chained hold takes no then")
            follower, chained, then = chain
            if chained < 0 or (then is not None and then < 0):
                raise SimulationError(
                    f"negative hold: duration={chained}, then={then}")
            last = _new(Hold)
            last.env = env
            last.callbacks = [follower._finish_hold]
            last._value = None
            last._ok = True
            last._defused = False
            last.duration = chained
            last.then = then
            last.done = last.chain = None
            first.chain = (follower, last)
        done: Event = last
        if then is not None:
            done = last.done = _new(Event)
            done.env = env
            done.callbacks = []
            done._ok = True
            done._defused = False
        done._value = value
        users = self._users
        if len(users) < self.capacity:
            now = env._now
            self._busy_time += len(users) * (now - self._last_change)
            self._last_change = now
            users.append(first)
            heappush(env._queue, (now + duration, NORMAL,
                                  next(env._sequence), first))
        else:
            self._waiting.append(first)
        return done

    def _finish_hold(self, hold: Hold) -> None:
        """Hold-end callback: free the server, start whoever is next,
        then let the holder continue (rules 3 and 4)."""
        env = self.env
        now = env._now
        users = self._users
        self._busy_time += len(users) * (now - self._last_change)
        self._last_change = now
        users.remove(hold)
        waiting = self._waiting
        while waiting and len(users) < self.capacity:
            waiter = waiting.popleft()
            if type(waiter) is Hold:
                users.append(waiter)
                heappush(env._queue, (now + waiter.duration, NORMAL,
                                      next(env._sequence), waiter))
            else:
                self._start(waiter)
        if hold.then is not None:
            heappush(env._queue, (now + hold.then, NORMAL,
                                  next(env._sequence), hold.done))
        elif hold.chain is not None:
            follower, chained = hold.chain
            users = follower._users
            if len(users) < follower.capacity:
                follower._busy_time += len(users) * (
                    now - follower._last_change)
                follower._last_change = now
                users.append(chained)
                heappush(env._queue, (now + chained.duration, NORMAL,
                                      next(env._sequence), chained))
            else:
                follower._waiting.append(chained)

    def _start(self, waiter: Event) -> None:
        """Give ``waiter`` a server (the caller checked one is free)."""
        self._account()
        self._users.append(waiter)
        if type(waiter) is Hold:
            self.env.schedule(waiter, waiter.duration)
        else:
            waiter.succeed(waiter)

    def _free(self, holder: Event) -> None:
        self._account()
        self._users.remove(holder)
        while self._waiting and len(self._users) < self.capacity:
            self._start(self._waiting.popleft())

    def _account(self) -> None:
        now = self.env.now
        self._busy_time += len(self._users) * (now - self._last_change)
        self._last_change = now

    def begin_window(self) -> None:
        """Re-base the busy-time window at the current time.

        :meth:`utilization` then covers only busy time accumulated after
        this call.  This is the one window kept outside the metrics
        registry, on purpose: busy time is simulator state the hold path
        accumulates, and ``PulseCluster.begin_measurement`` re-bases it
        in the same instant the registry opens its window.
        """
        self._account()
        self._window_start = self.env.now
        self._window_busy_base = self._busy_time

    def utilization(self) -> float:
        """Average fraction of capacity busy since construction or the
        last :meth:`begin_window`."""
        self._account()
        window = self.env.now - self._window_start
        if window <= 0:
            return 0.0
        return (self._busy_time - self._window_busy_base) / (
            window * self.capacity)


class Store:
    """An unbounded buffer of items with blocking ``get`` and
    non-blocking ``put`` (drops are modeled at the network layer)."""

    def __init__(self, env: Environment):
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item: Any) -> None:
        self._items.append(item)
        self._dispatch()

    def get(self) -> Event:
        getter = Event(self.env)
        self._getters.append(getter)
        self._dispatch()
        return getter

    def _dispatch(self) -> None:
        while self._items and self._getters:
            self._getters.popleft().succeed(self._items.popleft())
