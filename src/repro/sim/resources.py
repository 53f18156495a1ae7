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
from heapq import heappush, heapreplace
from typing import Any, Deque, List, Optional, Tuple

from repro.sim.engine import NORMAL, Environment, Event, SimulationError

#: allocation without a Python-level ``__init__``: ``Resource.hold``
#: fills its events field by field
_new = object.__new__


class Resource:
    """``capacity`` servers granted FIFO.

    A stage of fixed length is one call, and arithmetic rather than an
    event of its own::

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

    A resource serves one kind or the other, whichever it sees first;
    mixing them raises :class:`SimulationError`.  In a rack each
    resource is a :class:`~repro.sim.stages.Stage` built from its stage
    table (the ``one-stage-table`` row of ``tests/test_invariants.py``).
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        #: holds: each server's free time, a heap (None until a hold)
        self._free: Optional[List[float]] = None
        #: requests: the granted events (None until a request) and the
        #: queue behind them
        self._users: Optional[List[Event]] = None
        self._waiting: Deque[Event] = deque()
        #: busy time: booked in full when a hold is made; integrated up
        #: to ``_last_change`` while requests are granted
        self._busy_time = 0.0
        self._last_change = env.now
        # Busy-time window (see begin_window / utilization).
        self._window_start = env.now
        self._window_busy_base = 0.0

    def request(self) -> Event:
        users = self._users
        if users is None:
            if self._free is not None:
                raise SimulationError("request() on a resource that "
                                      "serves holds")
            users = self._users = []
        req = Event(self.env)
        if len(users) < self.capacity:
            self._account()
            users.append(req)
            req.succeed(req)
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Event) -> None:
        users = self._users
        if users is None or request not in users:
            raise SimulationError("releasing a request that does not hold "
                                  "this resource")
        self._account()
        users.remove(request)
        waiting = self._waiting
        while waiting and len(users) < self.capacity:
            waiter = waiting.popleft()
            users.append(waiter)
            waiter.succeed(waiter)

    def hold(self, duration: float, then: Optional[float] = None,
             chain: Optional[Tuple["Resource", float, Optional[float]]]
             = None, value: Any = None) -> Event:
        """Occupy one server FIFO for ``duration``; the returned event
        fires ``then`` ns after the server is freed, with ``value``.

        A FIFO server in closed form: the visit starts at ``max(now,
        earliest free time of the servers)``, which it moves to its end,
        and its completion is one heap entry, pushed now, at ``end``
        (``end + then`` with a follow-on delay).  Nothing is queued and
        nothing runs when the server frees; a hold is not a critical
        section, so once made it runs to its end whatever becomes of the
        process waiting on it.

        ``chain=(resource, duration, then)`` appends a second stage on
        another resource: the returned event is the *second* stage's,
        and the first takes no ``then`` of its own.  The second stage's
        start depends on who reaches its resource before the first ends,
        so the chain pushes a join entry at the first stage's end, which
        makes the same arithmetic on the follower and pushes the
        completion.

        One tie rule: completions at the same instant run in visit order
        (the order of the ``hold`` calls, or of the joins for a chain's
        second stage).

        This and :meth:`_join` are the whole hold path, and
        straight-line on purpose (the call-budget test in
        ``tests/test_sim_hold.py``): events are built field by field and
        pushed onto ``env._queue`` directly.  ``not x >= 0`` rejects NaN,
        which would silently break the heap order.
        """
        if not duration >= 0 or not (then is None or then >= 0):
            raise SimulationError(
                f"negative or NaN hold: duration={duration}, then={then}")
        if chain is not None:
            follower, chained, tail = chain
            if then is not None:
                raise SimulationError("a chained hold takes no then")
            if not chained >= 0 or not (tail is None or tail >= 0):
                raise SimulationError(
                    f"negative or NaN hold: duration={chained}, "
                    f"then={tail}")
            if follower._free is None:
                follower._serve_holds()
        free = self._free
        if free is None:
            free = self._serve_holds()
        env = self.env
        now = env._now
        start = free[0]
        if start < now:
            start = now
        end = start + duration
        heapreplace(free, end)
        self._busy_time += duration
        done = _new(Event)
        done.env = env
        done.callbacks = []
        done._value = value
        done._ok = True
        done._defused = False
        if chain is None:
            heappush(env._queue, (end if then is None else end + then,
                                  NORMAL, next(env._sequence), done))
            return done
        join = _new(Event)
        join.env = env
        join.callbacks = [follower._join]
        join._value = (chained, tail, done)
        join._ok = True
        join._defused = False
        heappush(env._queue, (end, NORMAL, next(env._sequence), join))
        return done

    def _join(self, join: Event) -> None:
        """A chain's join entry: its second stage, as :meth:`hold`."""
        duration, then, done = join._value
        env = self.env
        now = env._now
        free = self._free
        start = free[0]
        if start < now:
            start = now
        end = start + duration
        heapreplace(free, end)
        self._busy_time += duration
        heappush(env._queue, (end if then is None else end + then,
                              NORMAL, next(env._sequence), done))

    def _serve_holds(self) -> List[float]:
        """Make this a resource of holds: every server free now."""
        if self._users is not None:
            raise SimulationError("hold() on a resource that serves "
                                  "requests")
        self._free = [self.env._now] * self.capacity
        return self._free

    def _account(self) -> None:
        """Integrate the granted requests' busy time up to now."""
        now = self.env.now
        self._busy_time += len(self._users) * (now - self._last_change)
        self._last_change = now

    def _busy(self) -> float:
        """Busy time up to now: holds booked beyond it do not count."""
        if self._users is not None:
            self._account()
            return self._busy_time
        now = self.env.now
        return self._busy_time - sum(
            free - now for free in self._free or () if free > now)

    def begin_window(self) -> None:
        """Re-base the busy-time window at the current time.

        :meth:`utilization` then covers only busy time accumulated after
        this call.  This is the one window kept outside the metrics
        registry, on purpose: busy time is simulator state the hold path
        accumulates, and ``PulseCluster.begin_measurement`` re-bases it
        in the same instant the registry opens its window.
        """
        self._window_start = self.env.now
        self._window_busy_base = self._busy()

    def utilization(self) -> float:
        """Average fraction of capacity busy since construction or the
        last :meth:`begin_window`, up to now."""
        window = self.env.now - self._window_start
        if window <= 0:
            return 0.0
        return (self._busy() - self._window_busy_base) / (
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
