"""Process-based discrete-event simulation engine.

The engine follows the classic event-loop design: a priority queue of
``(time, priority, sequence, event)`` entries, an :class:`Environment` that
pops entries in time order, and :class:`Process` objects that wrap Python
generators.  A process yields events; when a yielded event fires, the
process is resumed with the event's value (or an exception is thrown into
it if the event failed).

Only the features pulse needs are implemented, which keeps the kernel small
enough to reason about and test exhaustively:

* :class:`Timeout` -- fire after a simulated delay.
* :class:`Event` -- manually triggered one-shot events (used for signals
  between pipelines and the scheduler).
* :class:`Process` -- also usable as an event (fires when the process
  terminates), enabling fork/join.
* :class:`AnyOf` / :class:`AllOf` -- condition events over several events.

A timer that loses a race is disarmed with :meth:`Timeout.cancel`: its
callbacks (and everything they keep alive) are dropped at once, and its
heap entry becomes *dead* -- its callbacks are :data:`CANCELLED`, so
popping it runs nothing and does not move the clock.  Dead entries are
inert until they reach the head or until the environment compacts them:
once more than :data:`COMPACT_MIN` entries and more than half the queue
are dead, the queue is rebuilt in place from its live entries (asyncio's
rule for cancelled timer handles).  Keys ``(time, priority, sequence)``
are unique and never rewritten, so live events pop in exactly the order
they would have without the cancel or the rebuild.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from itertools import count
from typing import Any, Callable, Generator, Iterable, List, Optional

#: Event priorities: URGENT events scheduled at the same timestamp run
#: before NORMAL ones.  A process's start, and its resume on an event
#: that already fired, are URGENT: both happen "now", ahead of whatever
#: else is queued at this timestamp.
URGENT = 0
NORMAL = 1

#: The callbacks of a cancelled timer: empty, so popping its dead heap
#: entry runs nothing, and recognised by identity.
CANCELLED: tuple = ()

#: Dead entries the queue may hold before it is compacted (and then only
#: once they are more than half of it).
COMPACT_MIN = 64


#: allocation without a Python-level ``__init__``, for ``Process``,
#: which fills its start event's fields inline
_new = object.__new__


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel (not for modeled faults)."""


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *untriggered*; calling :meth:`succeed` or :meth:`fail`
    schedules it.  Once the environment pops it from the queue it is
    *processed*: its callbacks run exactly once.
    """

    # Millions of these live and die per run; slots keep them small and
    # their attribute access cheap.  Subclasses declare their own.
    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        #: Set when a failed event's exception was delivered somewhere.
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to be thrown into waiters."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self


class Timeout(Event):
    """An event that fires ``delay`` time units after it is created."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._defused = False
        heappush(env._queue,
                 (env._now + delay, NORMAL, next(env._sequence), self))

    def cancel(self) -> None:
        """Disarm the timer: it will never fire.

        Its callbacks are dropped now and its heap entry is left dead.
        Cancelling a timer that already fired, or was cancelled, is a
        no-op.
        """
        callbacks = self.callbacks
        if callbacks is None or callbacks is CANCELLED:
            return
        self.callbacks = CANCELLED
        env = self.env
        env._cancelled += 1
        if (env._cancelled > COMPACT_MIN
                and 2 * env._cancelled > len(env._queue)):
            env._compact()


class Process(Event):
    """Wraps a generator as a simulation process.

    The process is itself an event that fires when the generator finishes;
    its value is the generator's return value.  Other processes may yield a
    process to join on it.
    """

    __slots__ = ("_generator",)

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = None
        self._defused = False
        self._generator = generator
        # Kick off the process at the current time: an already-fired
        # event of its own, pushed here like Timeout pushes itself.
        init = _new(Event)
        init.env = env
        init.callbacks = [self._resume]
        init._value = None
        init._ok = True
        init._defused = False
        heappush(env._queue, (env._now, URGENT, next(env._sequence), init))

    def _resume(self, event: Event) -> None:
        if self._ok is not None:
            return
        env = self.env
        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                event._defused = True
                next_event = self._generator.throw(event._value)
        except StopIteration as exc:
            self._ok = True
            self._value = exc.value
            heappush(env._queue,
                     (env._now, NORMAL, next(env._sequence), self))
            return
        except BaseException as exc:
            self._ok = False
            self._value = exc
            env.schedule(self)
            return

        try:
            callbacks = next_event.callbacks
        except AttributeError:
            raise SimulationError(
                f"process yielded a non-event: {next_event!r}"
            ) from None
        if callbacks is None:
            # Already fired: resume immediately (same timestamp).
            immediate = Event(env)
            immediate._ok = next_event._ok
            immediate._value = next_event._value
            if not next_event._ok:
                next_event._defused = True
                immediate._defused = True
            immediate.callbacks.append(self._resume)
            env.schedule(immediate, priority=URGENT)
        else:
            callbacks.append(self._resume)


class _Condition(Event):
    """Base for AnyOf / AllOf over a fixed set of events."""

    __slots__ = ("_events", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._pending = 0
        for event in self._events:
            if event.env is not env:
                raise SimulationError("events belong to different environments")
        for event in self._events:
            if event.processed:
                self._observe(event)
            else:
                self._pending += 1
                event.callbacks.append(self._observe)
        self._check_finalize()

    def _observe(self, event: Event) -> None:
        raise NotImplementedError

    def _check_finalize(self) -> None:
        raise NotImplementedError

    def _results(self) -> dict:
        return {
            event: event._value
            for event in self._events
            if event.processed and event._ok
        }


class AnyOf(_Condition):
    """Fires as soon as any constituent event fires."""

    __slots__ = ()

    def _observe(self, event: Event) -> None:
        if self._ok is not None:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self.succeed(self._results())

    def _check_finalize(self) -> None:
        if self._ok is None and not self._events:
            self.succeed({})


class AllOf(_Condition):
    """Fires when all constituent events have fired."""

    __slots__ = ()

    def _observe(self, event: Event) -> None:
        if self._ok is not None:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._pending -= 1
        if self._pending <= 0 and all(e.processed for e in self._events):
            self.succeed(self._results())

    def _check_finalize(self) -> None:
        if self._ok is None and all(
            e.processed and e._ok for e in self._events
        ):
            self.succeed(self._results())


class Environment:
    """Holds simulated time and the event queue, and runs the loop."""

    def __init__(self):
        self._now = 0.0
        self._queue: List = []
        self._sequence = count()
        #: dead (cancelled-timer) entries still in ``_queue``
        self._cancelled = 0
        #: conservative-lookahead window (sharded execution): events at
        #: or beyond this time may not be processed until the window
        #: hook has synchronized with the other shard processes
        self._window_end = float("inf")
        #: ``hook(limit) -> bool``: exchange frames with the other shard
        #: processes and extend the window; returns False when no event
        #: anywhere in the sharded cluster exists at time <= ``limit``
        self._window_hook: Optional[Callable[[float], bool]] = None

    @property
    def now(self) -> float:
        """Current simulated time (pulse convention: nanoseconds)."""
        return self._now

    # -- factory helpers ---------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float) -> Timeout:
        return Timeout(self, delay)

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling --------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0,
                 priority: int = NORMAL) -> None:
        heappush(
            self._queue,
            (self._now + delay, priority, next(self._sequence), event),
        )

    def schedule_at(self, event: Event, when: float) -> None:
        """Schedule ``event`` at an absolute time (sharded frame import).

        Unlike :meth:`schedule`, which is relative to ``now``, this pins
        the event to an absolute timestamp -- the arrival time a remote
        shard computed when it exported the frame.
        """
        if when < self._now:
            raise SimulationError(
                f"schedule_at({when}) is in the past (now={self._now})")
        heappush(
            self._queue, (when, NORMAL, next(self._sequence), event))

    def peek(self) -> float:
        """Time of the next scheduled entry, or ``inf`` if none.

        The entry may be dead, so this is a lower bound on the next live
        event's time -- all the lookahead window needs.
        """
        if not self._queue:
            return float("inf")
        return self._queue[0][0]

    def _compact(self) -> None:
        """Rebuild the queue in place from its live entries."""
        queue = self._queue
        queue[:] = [entry for entry in queue
                    if entry[3].callbacks is not CANCELLED]
        heapify(queue)
        self._cancelled = 0

    # -- conservative lookahead windows (sharded execution) ----------------
    def set_window_hook(self, hook: Callable[[float], bool]) -> None:
        """Install the shard-coordinator window barrier.

        With a hook installed, :meth:`run` only processes events strictly
        before the window's end (now, until the hook extends it); to get
        past it, the loop calls ``hook(limit)``, which must either extend
        the window (returning True) or report that no event anywhere in
        the sharded cluster exists at time <= ``limit`` (returning
        False).

        ``cluster.shard()`` installs it between runs.  Installing it from
        inside an event is safe too: the drain in progress ends before
        its next pop and :meth:`run` asks the new hook for a window.
        """
        self._window_hook = hook
        self._window_end = self._now

    def clear_window_hook(self) -> None:
        self._window_hook = None
        self._window_end = float("inf")

    def advance_window(self, end: float) -> None:
        """Extend the lookahead window (called by the window hook)."""
        if end < self._window_end and self._window_end != float("inf"):
            raise SimulationError(
                f"window must advance monotonically "
                f"({end} < {self._window_end})")
        self._window_end = end

    def run_window(self, horizon: float) -> None:
        """Process every event strictly before ``horizon``.

        The shard *worker* loop: the coordinator guarantees (by the
        lookahead rule) that no frame arriving before ``horizon`` is
        still in flight, so everything below it can run locally.
        """
        # strictly before ``horizon`` == at or before the float below it
        self._drain(None, math.nextafter(horizon, -math.inf))

    def _drain(self, stop: Optional[Event], horizon: float) -> None:
        """The one pop/dispatch loop: every event at time <= ``horizon``
        and strictly before the window end, or up to and including
        ``stop``: each runs its callbacks, then re-raises its failure if
        nothing defused it.  A dead entry is
        dropped without touching the clock.

        The window end is re-read per pop because an event may install
        a window hook, which must take effect before the next one.
        """
        queue = self._queue
        while queue and horizon >= queue[0][0] < self._window_end:
            when, _prio, _seq, event = heappop(queue)
            callbacks = event.callbacks
            if callbacks is CANCELLED:
                self._cancelled -= 1
                continue
            self._now = when
            event.callbacks = None
            for callback in callbacks:
                callback(event)
            if event._ok is False and not event._defused:
                raise event._value
            if event is stop:
                return

    def run(self, until: Any = None) -> Any:
        """Run until ``until`` (a time, an event, or exhaustion).

        * ``until is None``: run until no events remain.
        * ``until`` is a number: run until simulated time reaches it.
        * ``until`` is an :class:`Event`: run until it is processed and
          return its value (raising its exception if it failed).

        Drain the current window, ask the hook (if any) for the next
        one, repeat; without a hook the window never ends and the first
        drain is the whole run.
        """
        stop: Optional[Event] = None
        horizon = float("inf")
        if isinstance(until, Event):
            stop = until
        elif until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise SimulationError(
                    f"run(until={horizon}) is in the past (now={self._now})"
                )

        queue = self._queue
        while stop is None or stop.callbacks is not None:
            head = queue[0][0] if queue else float("inf")
            if head >= self._window_end:  # or nothing queued at all
                if (self._window_hook is None
                        or not self._window_hook(horizon)):
                    break
            elif head > horizon:
                break
            else:
                self._drain(stop, horizon)

        if stop is not None:
            if stop.callbacks is not None:
                raise SimulationError(
                    "simulation ran out of events before the awaited "
                    "event fired (deadlock?)"
                )
            if not stop._ok:
                stop._defused = True
                raise stop._value
            return stop._value
        if until is not None:
            self._now = horizon
        return None
