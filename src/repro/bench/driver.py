"""System-agnostic workload drivers (closed loop and open loop).

Every system in the repo -- pulse and all four baselines -- is a
:class:`~repro.core.cluster.Rack`: an ``env``, an async
``submit(iterator, *args)`` returning a
:class:`~repro.core.client.PendingTraversal`, a closed-loop
``traverse(iterator, *args)`` process, and the measurement contract
(``begin_measurement`` / ``metrics_snapshot``).  Two drivers run
experiments against that one contract:

* :func:`run_workload` -- the paper's closed-loop generator:
  ``concurrency`` lock-step workers, each issuing the next operation as
  soon as its previous one completes.  Good for latency cells, but load
  is capped by ``concurrency / latency``.
* :func:`run_open_loop` -- a Poisson arrival process at a configured
  *offered load*, submitting asynchronously without waiting.  In-flight
  work grows until the system pushes back, which is what exposes the
  saturation point (and the batching/admission machinery) the
  throughput-vs-offered-load curves plot.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.client import RequestLost
from repro.core.iterator import TraversalResult


@dataclass
class WorkloadStats:
    """Everything the figures need from one run."""

    completed: int
    #: the rack registry's measurement window (``registry.window_ns``)
    duration_ns: float
    latencies_ns: List[float]
    faults: int
    total_hops: int
    results: List[TraversalResult] = field(repr=False, default_factory=list)
    #: ``registry.snapshot()`` taken when the workload finished (systems
    #: without a metrics registry leave this None)
    metrics: Optional[Dict] = field(repr=False, default=None)
    #: open-loop only: the configured arrival rate (ops/s)
    offered_load_per_s: Optional[float] = None
    #: open-loop only: requests abandoned after exhausting retries
    lost: int = 0
    #: open-loop only: peak concurrently-in-flight submissions observed
    max_in_flight: int = 0

    @property
    def throughput_per_s(self) -> float:
        if self.duration_ns <= 0:
            return 0.0
        return self.completed / (self.duration_ns / 1e9)

    @property
    def avg_latency_ns(self) -> float:
        if not self.latencies_ns:
            return 0.0
        return sum(self.latencies_ns) / len(self.latencies_ns)

    def percentile_latency_ns(self, percentile: float) -> float:
        if not self.latencies_ns:
            return 0.0
        ordered = sorted(self.latencies_ns)
        index = min(len(ordered) - 1,
                    int(round(percentile / 100.0 * (len(ordered) - 1))))
        return ordered[index]

    @property
    def avg_iterations(self) -> float:
        if not self.results:
            return 0.0
        return sum(r.iterations for r in self.results) / len(self.results)

    @property
    def inter_node_fraction(self) -> float:
        """Fraction of operations that crossed memory nodes at least once."""
        if not self.results:
            return 0.0
        crossed = sum(1 for r in self.results if r.hops > 0)
        return crossed / len(self.results)


def run_workload(system, operations: Sequence[Tuple[Any, tuple]],
                 concurrency: int = 8,
                 warmup: int = 0) -> WorkloadStats:
    """Drive ``operations`` through ``system`` with closed-loop workers.

    ``operations`` is a sequence of ``(iterator, args)`` pairs.  The first
    ``warmup`` completions are excluded from latency/throughput (caches
    and pipelines fill during warmup).  The simulation runs until every
    operation completes.
    """
    env = system.env
    results: List[Optional[TraversalResult]] = [None] * len(operations)
    cursor = {"next": 0}

    def worker():
        while True:
            index = cursor["next"]
            if index >= len(operations):
                return
            cursor["next"] = index + 1
            if index == warmup:
                # Drop warmup-time metrics so histograms and
                # utilizations cover only the measured window.
                system.begin_measurement()
            iterator, args = operations[index]
            result = yield from system.traverse(iterator, *args)
            results[index] = result

    workers = [env.process(worker())
               for _ in range(max(1, min(concurrency, len(operations))))]
    done = env.all_of(workers)
    env.run(until=done)

    measured = [r for r in results[warmup:] if r is not None]
    return WorkloadStats(
        completed=len(measured),
        duration_ns=system.registry.window_ns,
        latencies_ns=[r.latency_ns for r in measured],
        faults=sum(1 for r in measured if not r.ok),
        total_hops=sum(r.hops for r in measured),
        results=measured,
        metrics=system.metrics_snapshot(),
    )


def run_open_loop(system, operations: Sequence[Tuple[Any, tuple]],
                  offered_load_per_s: float,
                  warmup: int = 0, seed: int = 0,
                  burst: int = 1,
                  keep_results: bool = True) -> WorkloadStats:
    """Submit ``operations`` at a Poisson rate, without waiting.

    Arrivals are exponential with mean ``1 / offered_load_per_s``; each
    arrival calls ``system.submit_many`` with a burst of ``burst``
    operations and moves on -- completions are collected
    asynchronously, so in-flight work piles up whenever the offered
    load exceeds what the system sustains.  With ``burst > 1`` the
    inter-arrival gap stretches by the burst size, preserving the
    *per-operation* offered load while handing the backend whole
    frames its batching machinery (doorbell batcher, lockstep batch
    machine) can exploit.  Requests that exhaust their retry budget
    (admission NACKs under overload, or losses) are counted in
    ``lost`` rather than aborting the run.

    ``keep_results=False`` folds completions into running aggregates
    (count, faults, hops, latencies) instead of retaining every
    :class:`TraversalResult` -- the mode million-request runs use.
    Termination is a counting done-event either way: each completion
    decrements an outstanding counter, so a run with N requests costs
    O(N), not the O(N^2) an all-of barrier over N collectors would.
    """
    if offered_load_per_s <= 0:
        raise ValueError("offered load must be positive")
    if burst < 1:
        raise ValueError("burst must be >= 1")
    env = system.env
    rate_per_ns = offered_load_per_s / 1e9
    rng = random.Random(seed)
    results: List[Optional[TraversalResult]] = (
        [None] * len(operations) if keep_results else [])
    state = {"lost": 0, "in_flight": 0, "max_in_flight": 0,
             "outstanding": 0, "gen_done": False}
    agg = {"completed": 0, "faults": 0, "hops": 0}
    latencies: List[float] = []
    done = env.event()

    def collect(index, pending):
        try:
            result = yield from pending.wait()
        except RequestLost:
            state["lost"] += 1
            return
        finally:
            state["in_flight"] -= 1
            state["outstanding"] -= 1
            if state["outstanding"] == 0 and state["gen_done"]:
                done.succeed()
        if keep_results:
            results[index] = result
        elif index >= warmup:
            agg["completed"] += 1
            agg["faults"] += 0 if result.ok else 1
            agg["hops"] += result.hops
            latencies.append(result.latency_ns)

    def generator():
        for begin in range(0, len(operations), burst):
            chunk = operations[begin:begin + burst]
            yield env.timeout(
                rng.expovariate(1.0) / rate_per_ns * len(chunk))
            if begin <= warmup < begin + len(chunk):
                system.begin_measurement()
            pendings = system.submit_many(chunk)
            state["in_flight"] += len(pendings)
            state["max_in_flight"] = max(state["max_in_flight"],
                                         state["in_flight"])
            state["outstanding"] += len(pendings)
            for offset, pending in enumerate(pendings):
                env.process(collect(begin + offset, pending))

    env.run(until=env.process(generator()))
    state["gen_done"] = True
    if state["outstanding"] == 0:
        done.succeed()
    env.run(until=done)

    if keep_results:
        measured = [r for r in results[warmup:] if r is not None]
        agg = {"completed": len(measured),
               "faults": sum(1 for r in measured if not r.ok),
               "hops": sum(r.hops for r in measured)}
        latencies = [r.latency_ns for r in measured]
    else:
        measured = []
    return WorkloadStats(
        completed=agg["completed"],
        duration_ns=system.registry.window_ns,
        latencies_ns=latencies,
        faults=agg["faults"],
        total_hops=agg["hops"],
        results=measured,
        metrics=system.metrics_snapshot(),
        offered_load_per_s=offered_load_per_s,
        lost=state["lost"],
        max_in_flight=state["max_in_flight"],
    )
