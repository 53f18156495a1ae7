"""One harness for every table and figure.

A *cell* is (system, workload, node count) -> build the rack, build the
workload against its memory, replay the operation stream, and collect
latency/throughput/utilization/energy.  Every benchmark file under
``benchmarks/`` is a thin wrapper that picks cells and prints the rows
the corresponding figure plots.

Workload sizes are scaled down from the paper (see DESIGN.md) but the
ratios the figures report are size-independent within wide margins:
traversal lengths, eta, and cache:data ratios are preserved.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.baselines import CacheRpcSystem, CacheSystem, RpcSystem
from repro.baselines.common import workers_to_saturate
from repro.bench.driver import WorkloadStats, run_open_loop, run_workload
from repro.core import PulseCluster
from repro.energy import EnergyReport, measure_energy
from repro.params import DEFAULT_PARAMS, SystemParams
from repro.workloads import build_tc, build_tsv, build_upc
from repro.workloads.apps import Workload

#: the compared systems of section 7 by the paper's names (pulse-acc is
#: Fig 8's ablation): the rack class and the constructor options that
#: make it that system
SYSTEMS = {
    "pulse": (PulseCluster, {}),
    "pulse-acc": (PulseCluster, {"bounce_to_client": True}),
    "cache": (CacheSystem, {}),
    "rpc": (RpcSystem, {}),
    "rpc-w": (RpcSystem, {"wimpy": True}),
    "cache+rpc": (CacheRpcSystem, {}),
}

#: workload columns of Figs 4-7
WORKLOAD_NAMES = ("UPC", "TC", "TSV-7.5s", "TSV-15s", "TSV-30s",
                  "TSV-60s")


def _system(name: str):
    """``(rack class, options)`` of a compared system."""
    try:
        return SYSTEMS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown system {name!r}") from None


def make_system(name: str, node_count: int = 1,
                params: Optional[SystemParams] = None, seed: int = 0,
                **kwargs):
    """Instantiate one of the compared systems."""
    rack, options = _system(name)
    return rack(node_count=node_count, params=params, seed=seed,
                **options, **kwargs)


def workload_family(name: str) -> str:
    """``UPC``, ``TC`` or ``TSV`` -- every ``TSV-<seconds>s`` window runs
    the same aggregation kernels; anything else is a ``ValueError``."""
    if name in ("UPC", "TC") or re.fullmatch(r"TSV-\d+(\.\d+)?s", name):
        return name.split("-")[0]
    raise ValueError(f"unknown workload {name!r}")


def build_workload(system, name: str, node_count: int,
                   requests: int, seed: int = 0, **kwargs) -> Workload:
    """Build one of the six workload columns against a system's memory."""
    family = workload_family(name)
    if family == "UPC":
        return build_upc(system.memory, node_count, requests=requests,
                         seed=seed, **kwargs)
    if family == "TC":
        return build_tc(system.memory, node_count, requests=requests,
                        seed=seed, **kwargs)
    window_s = float(name[len("TSV-"):-1])
    duration = max(600.0, 8 * window_s)
    return build_tsv(system.memory, node_count, window_s=window_s,
                     duration_s=duration, requests=requests,
                     seed=seed, **kwargs)


#: per-workload-family execution profile (load window bytes, logic
#: instructions per iteration) used to size RPC worker pools -- the
#: paper's "minimum number of memory-node workers that can saturate the
#: memory bandwidth" is a per-workload quantity (section 7)
WORKLOAD_PROFILES = {
    "UPC": (256, 10),
    "TC": (208, 80),
    "TSV": (160, 78),
}


def saturating_workers(system_name: str, workload_name: str,
                       params: SystemParams) -> int:
    window, instructions = WORKLOAD_PROFILES[workload_family(workload_name)]
    _rack, options = _system(system_name)
    cpu = params.wimpy if options.get("wimpy") else params.cpu
    return workers_to_saturate(
        cpu, params.memory.bandwidth_bytes_per_ns,
        window_bytes=window,
        instructions_per_iteration=instructions)


@dataclass
class CellResult:
    """Everything measured for one (system, workload, nodes) cell."""

    system: str
    workload: str
    nodes: int
    stats: WorkloadStats
    memory_utilization: float
    network_utilization: float
    workers_per_node: int
    energy: EnergyReport

    @property
    def avg_latency_us(self) -> float:
        return self.stats.avg_latency_ns / 1_000.0

    @property
    def throughput_kops(self) -> float:
        return self.stats.throughput_per_s / 1_000.0


def _run_cell(drive, system_name: str, workload_name: str,
              node_count: int, requests: int, seed: int,
              params: Optional[SystemParams],
              system_kwargs: Optional[dict],
              workload_kwargs: Optional[dict]) -> CellResult:
    """Build one cell, ``drive(system, operations)`` it, measure it."""
    parameters = params if params is not None else DEFAULT_PARAMS
    workload_family(workload_name)  # no rack is built for a bad name
    system_kwargs = dict(system_kwargs or {})
    rack, _options = _system(system_name)
    if (issubclass(rack, RpcSystem)
            and "workers_per_node" not in system_kwargs):
        system_kwargs["workers_per_node"] = saturating_workers(
            system_name, workload_name, parameters)
    system = make_system(system_name, node_count, parameters, seed,
                         **system_kwargs)
    workload = build_workload(system, workload_name, node_count,
                              requests, seed, **(workload_kwargs or {}))
    stats = drive(system, workload.operations)
    energy = measure_energy(system, stats.throughput_per_s)
    return CellResult(
        system=system_name,
        workload=workload_name,
        nodes=node_count,
        stats=stats,
        memory_utilization=system.memory_bandwidth_utilization(),
        network_utilization=system.network_bandwidth_utilization(),
        workers_per_node=system.workers_per_node,
        energy=energy,
    )


def run_cell(system_name: str, workload_name: str, node_count: int = 1,
             requests: int = 50, concurrency: int = 4, seed: int = 0,
             workload_kwargs: Optional[dict] = None) -> CellResult:
    """Run one experiment cell end to end."""
    return _run_cell(
        lambda system, ops: run_workload(system, ops,
                                         concurrency=concurrency),
        system_name, workload_name, node_count, requests, seed, None,
        None, workload_kwargs)


def run_open_loop_cell(system_name: str, workload_name: str,
                       offered_load_per_s: float, node_count: int = 1,
                       requests: int = 200, seed: int = 0,
                       params: Optional[SystemParams] = None,
                       system_kwargs: Optional[dict] = None,
                       workload_kwargs: Optional[dict] = None) -> CellResult:
    """One open-loop cell: Poisson arrivals at a configured offered load.

    Same shape as :func:`run_cell` but driven by
    :func:`~repro.bench.driver.run_open_loop` -- the system sees
    ``offered_load_per_s`` regardless of its completion rate, so the
    measured throughput saturates (and in-flight work piles up into the
    doorbell batchers / admission queues) once the load exceeds capacity.
    """
    return _run_cell(
        lambda system, ops: run_open_loop(system, ops, offered_load_per_s,
                                          seed=seed),
        system_name, workload_name, node_count, requests, seed, params,
        system_kwargs, workload_kwargs)


#: latency cells run lightly loaded; throughput cells run saturating
LATENCY_CONCURRENCY = 4
THROUGHPUT_CONCURRENCY = 96


def scaled_requests(workload_name: str, base: int) -> int:
    """Fewer requests for the longer-traversal workloads (sim time)."""
    scale = {
        "UPC": 1.0, "TC": 1.0, "TSV-7.5s": 1.0,
        "TSV-15s": 0.7, "TSV-30s": 0.5, "TSV-60s": 0.35,
    }.get(workload_name, 1.0)
    return max(8, int(base * scale))


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[str]]) -> str:
    """Fixed-width text table for benchmark output."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    lines = [
        "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(
            str(cell).ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
