"""What runs inside the fresh child process of one workload.

``setup_only`` / ``measure`` / ``trace`` each return a JSON-able dict that
``perfbench.run`` prints or folds into the run's result.
"""

from __future__ import annotations

import cProfile
import random
import resource
import statistics
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from perfbench.layers import LAYERS, bucket_profile, modeled_counts
from perfbench.loadgen import Drive, closed_loop, open_loop, percentile
from perfbench.workloads import (PRIME_CLOSED, SPECS, Built, Counts, Spec,
                                 prime)

#: the traced run drives this share of each phase's requests, once
#: untraced and once under cProfile, each on a fresh rack
TRACE_FRACTION = 0.15

#: a latency phase that completes less than this share of what arrived in
#: its window is past saturation: its percentiles mean nothing
MIN_ACHIEVED_SHARE = 0.97

#: below this many measured samples a latency phase is a smoke run: fewer
#: than ten samples lie beyond p99, and the window is too short next to a
#: request's latency for the saturation check to mean anything
MIN_SAMPLES = 1000

#: wall seconds beyond this multiple of CPU seconds mean the host was
#: contended while a single-process workload ran
CONTENDED_WALL_OVER_CPU = 1.15


@dataclass
class Run:
    """One built rack driven through both phases."""

    built: Built
    #: host CPU seconds from process start to the first timed submission
    setup_s: float
    latency: Drive
    #: ``metrics_snapshot()`` taken when the latency phase had drained
    snapshot: dict
    capacity: Drive

    @property
    def requests(self) -> int:
        return self.latency.requests + self.capacity.requests

    @property
    def wall_s(self) -> float:
        return self.latency.host_wall_s + self.capacity.host_wall_s

    @property
    def cpu_s(self) -> float:
        return self.latency.host_cpu_s + self.capacity.host_cpu_s

    def failures(self) -> Tuple[int, int]:
        """(attempted, failed): faults, lost requests and wrong values."""
        attempted = failed = 0
        for drive, stream in ((self.latency, self.built.latency),
                              (self.capacity, self.built.capacity)):
            for expect, result in zip(stream.expect, drive.results):
                attempted += 1
                failed += (result is None or not result.ok
                           or not self.built.judge(expect, result.value))
        return attempted, failed


def _setup(spec: Spec, seed: int, counts: Counts) -> Built:
    built = spec.build(seed, counts)
    try:
        prime(built, spec, counts, seed)
    except BaseException:
        built.close()
        raise
    return built


def _run(spec: Spec, seed: int, counts: Counts, driven: Counts,
         profile: Optional[cProfile.Profile] = None) -> Run:
    """Set up a fresh rack, then drive the first ``driven`` requests of
    each phase's stream (under ``profile`` when given) and shut it down."""
    built = _setup(spec, seed, counts)
    setup_s = time.process_time()
    try:
        if profile is not None:
            profile.enable()
        latency = open_loop(built.rack, built.latency.ops[:driven.latency],
                            spec.rate_per_s, spec.burst, driven.warmup,
                            random.Random(f"{seed}:arrivals"))
        snapshot = built.rack.metrics_snapshot()
        capacity = closed_loop(built.rack,
                               built.capacity.ops[:driven.capacity],
                               spec.clients)
    finally:
        if profile is not None:
            profile.disable()
        built.close()
    return Run(built, setup_s, latency, snapshot, capacity)


def setup_only(name: str, seed: int, seconds: float) -> dict:
    """Everything up to the first timed submission, then stop."""
    spec = SPECS[name]
    built = _setup(spec, seed, spec.counts(seconds))
    setup_s = time.process_time()
    built.close()
    return {"setup_s": setup_s}


def _saturation_problems(name: str, latency: Drive) -> List[str]:
    """Why the latency phase's percentiles are invalid, if they are."""
    if latency.requests - latency.warmup < MIN_SAMPLES:
        return []
    problems = []
    achieved = latency.completions_in_window()
    offered = latency.arrivals_in_window()
    if achieved < MIN_ACHIEVED_SHARE * offered:
        problems.append(f"{name}: latency phase completed {achieved} of "
                        f"{offered} arrivals in its window (past saturation)")
    if latency.backlog_grew():
        problems.append(f"{name}: in-flight work grew through the whole "
                        "latency phase (past saturation)")
    return problems


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure(name: str, seed: int, seconds: float) -> dict:
    """The untraced run: set-up, both phases, the oracle."""
    spec = SPECS[name]
    counts = spec.counts(seconds)
    run = _run(spec, seed, counts, counts)
    # before the sweep, which may start (and reap) processes of its own
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    attempted, failed = run.failures()
    if run.built.sweep is not None:
        checked, wrong = run.built.sweep()
        attempted += checked
        failed += wrong

    samples = run.latency.latencies_ns()
    return {
        "end_to_end": {
            "setup_s": run.setup_s,
            "host_req_per_s": run.requests / run.wall_s,
            "host_peak_rss_mb": peak_kb / 1024,
            "model_p50_us": percentile(samples, 50) / 1e3,
            "model_p99_us": percentile(samples, 99) / 1e3,
            "model_sat_kops":
                run.capacity.completions_per_sim_second() / 1e3,
            "failed_share": failed / attempted,
        },
        "samples": len(samples),
        "attempted": attempted,
        "failed": failed,
        "smoke": len(samples) < MIN_SAMPLES,
        "invalid": _saturation_problems(name, run.latency),
        "requests": {"latency": run.latency.requests,
                     "capacity": run.capacity.requests},
        "host_wall_s": run.wall_s,
        "host_cpu_s": run.cpu_s,
        # a coordinator of several processes waits on its workers by design
        "host_contended": (spec.processes == 1 and
                           run.wall_s > CONTENDED_WALL_OVER_CPU * run.cpu_s),
    }


def trace(name: str, seed: int, seconds: float) -> dict:
    """The traced run: a prefix of the same streams, untraced for the
    modeled counts and the baseline host time, then under cProfile."""
    spec = SPECS[name]
    counts = spec.counts(seconds)
    driven = spec.counts(seconds * TRACE_FRACTION)

    workers_cpu_s = _children_cpu_s()
    plain = _run(spec, seed, counts, driven)
    workers_cpu_s = _children_cpu_s() - workers_cpu_s
    profile = cProfile.Profile()
    traced = _run(spec, seed, counts, driven, profile)
    profile.create_stats()
    buckets = bucket_profile(profile.stats)

    latency = plain.latency
    layer = modeled_counts(
        plain.snapshot, requests=latency.requests - latency.warmup,
        requests_since_build=(counts.prime_open + PRIME_CLOSED
                              + latency.requests))
    if not plain.built.fig9_reference:
        layer["ref.fig9_err_pct"] = 0.0
    reference = plain.built.table2_iterations
    layer["ref.iterations_err_pct"] = 0.0 if reference is None else abs(
        statistics.fmean(result.iterations
                         for result in latency.results[latency.warmup:]
                         if result is not None) - reference
    ) / reference * 100.0
    for bucket in LAYERS:
        layer[f"host_share.{bucket}"] = (buckets["seconds"][bucket]
                                         / buckets["total"])
        layer[f"calls.{bucket}"] = buckets["calls"][bucket]
    requests = plain.requests
    events_per_req = buckets["heap_pops"] / requests
    layer.update({
        "trace.requests": requests,
        "trace.overhead_ratio": traced.wall_s / plain.wall_s,
        "trace.unattributed_share":
            buckets["unattributed"] / buckets["total"],
        "sim.events_per_req": events_per_req,
        "sim.host_us_per_event":
            plain.wall_s * 1e6 / requests / events_per_req,
        "shard.coord_cpu_share":
            plain.cpu_s / plain.wall_s if spec.processes > 1 else 0.0,
        "shard.worker_cpu_s": workers_cpu_s,
        "shard.windows_per_req": buckets["window_hooks"] / requests,
    })
    attempted, failed = (sum(pair) for pair in zip(plain.failures(),
                                                   traced.failures()))
    return {"per_layer": layer, "attempted": attempted, "failed": failed}
