"""Open- and closed-loop load generators.

The benchmark's own instrument: it talks to a rack only through the
``TraversalBackend`` protocol (``env``, ``submit_many``, ``traverse``,
``begin_measurement``) so that changes to ``repro.bench.driver`` cannot
move what the benchmark measures.  Simulated time is read from
``backend.env.now``; host time is taken with ``perf_counter`` /
``process_time`` around the one ``env.run`` call of each drive.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.client import RequestLost

Operation = Tuple[Any, tuple]


@dataclass
class Drive:
    """Everything one drive observed.  ``*_ns`` fields are simulated."""

    #: requests before this index are warm-up (excluded from latency)
    warmup: int
    #: per request, in stream order; None when the backend gave up on it
    results: List[Any]
    #: when each request was due (open loop) or issued (closed loop)
    due_ns: List[float]
    done_ns: List[Optional[float]]
    #: the measured window: every client busy / every arrival on schedule
    window_start_ns: float = 0.0
    window_end_ns: float = 0.0
    #: open loop only: requests outstanding just before each burst
    in_flight_seen: List[int] = field(default_factory=list)
    host_wall_s: float = 0.0
    host_cpu_s: float = 0.0

    @property
    def requests(self) -> int:
        return len(self.results)

    def latencies_ns(self) -> List[float]:
        """Completion minus due time of every measured, completed request."""
        return [done - due for due, done, result
                in zip(self.due_ns[self.warmup:], self.done_ns[self.warmup:],
                       self.results[self.warmup:])
                if result is not None]

    def completions_in_window(self) -> int:
        return sum(1 for done, result in zip(self.done_ns, self.results)
                   if result is not None
                   and self.window_start_ns <= done < self.window_end_ns)

    def arrivals_in_window(self) -> int:
        return sum(1 for due in self.due_ns
                   if self.window_start_ns <= due < self.window_end_ns)

    def completions_per_sim_second(self) -> float:
        span_ns = self.window_end_ns - self.window_start_ns
        return self.completions_in_window() / span_ns * 1e9

    def backlog_grew(self) -> bool:
        """True when in-flight work rose through all four quarters of the
        measured bursts and at least doubled: the queue is not stationary."""
        seen = self.in_flight_seen
        quarter = len(seen) // 4
        if quarter == 0:
            return False
        means = [sum(seen[i * quarter:(i + 1) * quarter]) / quarter
                 for i in range(4)]
        rising = all(a < b for a, b in zip(means, means[1:]))
        return rising and means[3] >= 2.0 * max(means[0], 1.0)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _timed_run(env, until) -> Tuple[float, float]:
    wall, cpu = time.perf_counter(), time.process_time()
    env.run(until=until)
    return time.perf_counter() - wall, time.process_time() - cpu


def open_loop(backend, operations: Sequence[Operation], rate_per_s: float,
              burst: int, warmup: int, rng) -> Drive:
    """Poisson arrivals at ``rate_per_s`` requests per simulated second.

    Requests arrive one by one; every ``burst``-th arrival hands the last
    ``burst`` of them to ``submit_many`` (a size-triggered doorbell), so
    the gap between bursts is the sum of ``burst`` exponential gaps.
    The generator runs in simulated time and is never late; a request's
    due time is the submission time of its burst.  ``warmup`` must be a
    multiple of ``burst``; measurement starts with the burst at that index.
    """
    if warmup % burst:
        raise ValueError("warmup must be a whole number of bursts")
    env = backend.env
    total = len(operations)
    drive = Drive(warmup=warmup, results=[None] * total,
                  due_ns=[0.0] * total, done_ns=[None] * total)
    state = {"outstanding": 0, "generated": False}
    finished = env.event()
    gap_ns = 1e9 / rate_per_s

    def collect(index, pending):
        try:
            drive.results[index] = yield from pending.wait()
        except RequestLost:
            pass
        drive.done_ns[index] = env.now
        state["outstanding"] -= 1
        if state["generated"] and state["outstanding"] == 0:
            finished.succeed()

    def generate():
        for begin in range(0, total, burst):
            chunk = operations[begin:begin + burst]
            yield env.timeout(rng.gammavariate(len(chunk), 1.0) * gap_ns)
            if begin == warmup:
                backend.begin_measurement()
                drive.window_start_ns = env.now
            if begin >= warmup:
                drive.in_flight_seen.append(state["outstanding"])
            for offset, pending in enumerate(backend.submit_many(chunk)):
                drive.due_ns[begin + offset] = env.now
                state["outstanding"] += 1
                env.process(collect(begin + offset, pending))
        drive.window_end_ns = env.now
        state["generated"] = True
        if state["outstanding"] == 0:
            finished.succeed()

    env.process(generate())
    drive.host_wall_s, drive.host_cpu_s = _timed_run(env, finished)
    return drive


def closed_loop(backend, operations: Sequence[Operation],
                clients: int) -> Drive:
    """``clients`` callers, each issuing its next request on completion.

    The first round (one request per client) is warm-up.  The measured
    window runs from the first second-round request until the stream is
    exhausted, so every client is busy throughout it.
    """
    total = len(operations)
    if total < 2 * clients:
        raise ValueError("closed loop needs at least two rounds of requests")
    env = backend.env
    drive = Drive(warmup=clients, results=[None] * total,
                  due_ns=[0.0] * total, done_ns=[None] * total)
    state = {"next": 0, "exhausted": False}

    def client():
        while True:
            index = state["next"]
            if index >= total:
                if not state["exhausted"]:
                    state["exhausted"] = True
                    drive.window_end_ns = env.now
                return
            state["next"] = index + 1
            if index == clients:
                backend.begin_measurement()
                drive.window_start_ns = env.now
            iterator, args = operations[index]
            drive.due_ns[index] = env.now
            try:
                drive.results[index] = yield from backend.traverse(
                    iterator, *args)
            except RequestLost:
                pass
            drive.done_ns[index] = env.now

    workers = [env.process(client()) for _ in range(clients)]
    drive.host_wall_s, drive.host_cpu_s = _timed_run(env, env.all_of(workers))
    return drive
