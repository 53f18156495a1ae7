"""Simulation-time metrics: counters, gauges, and streaming histograms.

One :class:`MetricsRegistry` serves a whole simulated rack.  Every
component (client, switch, accelerators, fabric endpoints, memory nodes,
baseline servers) registers metrics under dotted names --
``mem0.acc.span.netstack``, ``switch.dropped_stale``,
``net.client0.tx_bytes`` -- and one :meth:`MetricsRegistry.snapshot`
call at the end of a run yields a JSON-serializable view of all of them.

Three metric kinds cover what the benchmarks report:

* :class:`Counter` -- monotonically increasing count (requests,
  retransmits, bytes).
* :class:`Gauge` -- a point-in-time value, either set explicitly or
  computed by a callback at read time (table occupancy, bandwidth).
* :class:`Histogram` -- a streaming log-bucketed distribution giving
  p50/p90/p99/p999 without storing individual samples.  Bucket
  boundaries grow geometrically (~4 % relative error); exact ``sum``,
  ``count``, ``min``, and ``max`` are tracked alongside, and quantiles
  are clamped into ``[min, max]`` so degenerate distributions (all
  samples equal) report exact values.

The registry also owns the rack's per-request :class:`EventLog`, the
kind of timeline Fig 9 was measured from::

    t=     0.000us  client0    issue              req=(0, 1) program=list_find
    t=     1.198us  switch     route_to_memory    req=(0, 1) dst=mem0
    t=     2.130us  mem0       rx                 req=(0, 1) cur_ptr=0x10000000
    t=     2.231us  mem0       execute            req=(0, 1) core=0 iterations=1

It is off by default -- ``registry.events`` is None, so a call site
costs one attribute test -- and ``PulseCluster(trace=True)`` turns it on
through :meth:`MetricsRegistry.enable_events`.  Events are not part of
:meth:`MetricsRegistry.snapshot`.

Time is supplied by a ``clock`` callable (usually ``lambda: env.now``)
so the registry stays independent of the simulation kernel.

The registry also holds the rack's one *measurement window*: it opens
at construction and again at every :meth:`MetricsRegistry.reset` (which
``begin_measurement`` calls), and :attr:`MetricsRegistry.window_ns` is
its length.  Every rate -- a bandwidth gauge, a utilization, a driver's
throughput -- is a counter over that window (:meth:`MetricsRegistry.rate`);
no component keeps a window start of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "TraceEvent",
]


class MetricError(ValueError):
    """Misuse of the metrics API (type conflicts, negative increments)."""


class Counter:
    """A monotonically increasing count (int or float).

    :meth:`inc` is the checked spelling.  A hot loop that tallies in a
    local may publish the non-negative total by adding it to ``value``
    directly, before it next yields to the simulator.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise MetricError(
                f"counter {self.name!r}: negative increment {amount}")
        self.value += amount

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """A point-in-time value, set explicitly or computed by a callback."""

    __slots__ = ("name", "_value", "_fn")

    def __init__(self, name: str, fn: Optional[Callable[[], float]] = None):
        self.name = name
        self._value = 0.0
        self._fn = fn

    @property
    def value(self) -> float:
        if self._fn is not None:
            return self._fn()
        return self._value

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise MetricError(
                f"gauge {self.name!r} is callback-backed; cannot set()")
        self._value = value

    def reset(self) -> None:
        if self._fn is None:
            self._value = 0.0


class Histogram:
    """Streaming log-bucketed histogram.

    ``record()`` is O(1); quantiles walk the sparse bucket map.  Values
    <= 0 land in a dedicated zero bucket (durations are non-negative;
    tiny negative values from floating-point subtraction are clamped).
    """

    GROWTH = 1.04
    _LOG_GROWTH = math.log(GROWTH)

    __slots__ = ("name", "count", "sum", "_min", "_max", "_zero",
                 "_buckets")

    def __init__(self, name: str):
        self.name = name
        self._clear()

    def _clear(self) -> None:
        self.count = 0
        self.sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._zero = 0
        self._buckets: Dict[int, int] = {}

    def record(self, value: float) -> None:
        if value < 0.0:
            value = 0.0
        self.count += 1
        self.sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value <= 0.0:
            self._zero += 1
        else:
            index = int(math.floor(math.log(value) / self._LOG_GROWTH))
            self._buckets[index] = self._buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    @property
    def min(self) -> float:
        return self._min if self.count else 0.0

    @property
    def max(self) -> float:
        return self._max if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Value at percentile ``p`` (0-100), within ~4 % bucket error."""
        if not 0.0 <= p <= 100.0:
            raise MetricError(f"percentile {p} outside [0, 100]")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(p / 100.0 * self.count))
        cumulative = self._zero
        if cumulative >= rank:
            value = 0.0
        else:
            value = self._max
            for index in sorted(self._buckets):
                cumulative += self._buckets[index]
                if cumulative >= rank:
                    # Geometric midpoint of the bucket's bounds.
                    value = self.GROWTH ** (index + 0.5)
                    break
        return min(max(value, self.min), self.max)

    def reset(self) -> None:
        self._clear()

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p99": self.percentile(99.0),
            "p999": self.percentile(99.9),
        }


@dataclass(frozen=True)
class TraceEvent:
    time_ns: float
    component: str
    event: str
    request_id: Optional[Tuple[int, int]]
    detail: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in self.detail.items())
        req = f"req={self.request_id}" if self.request_id else ""
        return (f"t={self.time_ns/1000:10.3f}us  {self.component:10s} "
                f"{self.event:18s} {req} {extras}").rstrip()


class EventLog:
    """Timestamped per-request events from every component of a rack.

    Bounded: past ``capacity`` events are counted in ``dropped`` instead
    of stored.
    """

    def __init__(self, clock: Callable[[], float],
                 capacity: int = 100_000):
        self._clock = clock
        self.capacity = capacity
        self.events: List[TraceEvent] = []
        self.dropped = 0

    def record(self, component: str, event: str,
               request_id: Optional[Tuple[int, int]] = None,
               **detail) -> None:
        if len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(TraceEvent(
            time_ns=self._clock(),
            component=component,
            event=event,
            request_id=request_id,
            detail=detail,
        ))

    def timeline(self, request_id: Tuple[int, int]) -> List[TraceEvent]:
        """All events of one request, in time order."""
        return [e for e in self.events if e.request_id == request_id]

    def render(self, request_id: Optional[Tuple[int, int]] = None) -> str:
        events = (self.timeline(request_id) if request_id is not None
                  else self.events)
        return "\n".join(e.render() for e in events)

    def span_ns(self, request_id: Tuple[int, int]) -> float:
        """Simulated time between a request's first and last event."""
        events = self.timeline(request_id)
        if len(events) < 2:
            return 0.0
        return events[-1].time_ns - events[0].time_ns


class MetricsRegistry:
    """Name-keyed counters, gauges and histograms, plus the event log."""

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._metrics: Dict[str, Any] = {}
        #: the per-request event log; None until :meth:`enable_events`.
        #: Components read it once at construction, so enable it first.
        self.events: Optional[EventLog] = None
        #: when the measurement window opened (construction or the last
        #: :meth:`reset`)
        self.window_start = self._clock()

    def enable_events(self) -> EventLog:
        """Turn on per-request event recording (idempotent)."""
        if self.events is None:
            self.events = EventLog(self._clock)
        return self.events

    @property
    def now(self) -> float:
        return self._clock()

    @property
    def window_ns(self) -> float:
        """Length of the measurement window so far."""
        return self._clock() - self.window_start

    def rate(self, counter: Counter) -> float:
        """``counter`` per ns over the measurement window (0 when empty)."""
        window = self.window_ns
        return counter.value / window if window > 0 else 0.0

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif type(metric) is not cls:
            raise MetricError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str,
              fn: Optional[Callable[[], float]] = None) -> Gauge:
        gauge = self._get(name, Gauge)
        if fn is not None:
            if gauge._fn is not None and gauge._fn is not fn:
                raise MetricError(
                    f"gauge {name!r} already has a callback")
            gauge._fn = fn
        return gauge

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def names(self, prefix: str = "") -> list:
        return sorted(n for n in self._metrics if n.startswith(prefix))

    def reset(self) -> None:
        """Open a new measurement window: zero every counter, histogram
        and set gauge (callbacks untouched) and restamp ``window_start``."""
        for metric in self._metrics.values():
            metric.reset()
        self.window_start = self._clock()

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable view of every registered metric."""
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, float]] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                counters[name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[name] = metric.value
            else:
                histograms[name] = metric.snapshot()
        return {
            "now_ns": self.now,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }
