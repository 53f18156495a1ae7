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

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.baselines import CacheRpcSystem, CacheSystem, RpcSystem
from repro.bench.driver import WorkloadStats, run_open_loop, run_workload
from repro.core import PulseCluster
from repro.energy import EnergyReport, measure_energy
from repro.params import DEFAULT_PARAMS, SystemParams
from repro.workloads import build_tc, build_tsv, build_upc
from repro.workloads.apps import Workload

#: systems of section 7, by the paper's names
SYSTEM_NAMES = ("pulse", "cache", "rpc", "rpc-w", "cache+rpc")

#: workload columns of Figs 4-7
WORKLOAD_NAMES = ("UPC", "TC", "TSV-7.5s", "TSV-15s", "TSV-30s",
                  "TSV-60s")


def make_system(name: str, node_count: int = 1,
                params: Optional[SystemParams] = None, seed: int = 0,
                **kwargs):
    """Instantiate one of the compared systems."""
    lowered = name.lower()
    if lowered in ("pulse", "adpdm"):
        return PulseCluster(node_count=node_count, params=params,
                            seed=seed, **kwargs)
    if lowered == "pulse-acc":
        return PulseCluster(node_count=node_count, params=params,
                            seed=seed, bounce_to_client=True, **kwargs)
    if lowered in ("cache", "cache-based"):
        return CacheSystem(node_count=node_count, params=params,
                           seed=seed, **kwargs)
    if lowered == "rpc":
        return RpcSystem(node_count=node_count, params=params, seed=seed,
                         **kwargs)
    if lowered == "rpc-w":
        return RpcSystem(node_count=node_count, params=params, seed=seed,
                         wimpy=True, **kwargs)
    if lowered == "cache+rpc":
        if node_count != 1:
            raise ValueError(
                "Cache+RPC (AIFM) is single-node only (section 7.1)")
        return CacheRpcSystem(params=params, seed=seed, **kwargs)
    raise ValueError(f"unknown system {name!r}")


def build_workload(system, name: str, node_count: int,
                   requests: int, seed: int = 0, **kwargs) -> Workload:
    """Build one of the six workload columns against a system's memory."""
    if name == "UPC":
        return build_upc(system.memory, node_count, requests=requests,
                         seed=seed, **kwargs)
    if name == "TC":
        return build_tc(system.memory, node_count, requests=requests,
                        seed=seed, **kwargs)
    if name.startswith("TSV-"):
        window_s = float(name[len("TSV-"):-1])
        duration = max(600.0, 8 * window_s)
        return build_tsv(system.memory, node_count, window_s=window_s,
                         duration_s=duration, requests=requests,
                         seed=seed, **kwargs)
    raise ValueError(f"unknown workload {name!r}")


#: per-workload execution profile (load window bytes, logic instructions
#: per iteration) used to size RPC worker pools -- the paper's "minimum
#: number of memory-node workers that can saturate the memory bandwidth"
#: is a per-workload quantity (section 7)
WORKLOAD_PROFILES = {
    "UPC": (256, 10),
    "TC": (208, 80),
    "TSV-7.5s": (160, 78),
    "TSV-15s": (160, 78),
    "TSV-30s": (160, 78),
    "TSV-60s": (160, 78),
}


def saturating_workers(system_name: str, workload_name: str,
                       params: SystemParams) -> int:
    from repro.baselines.common import workers_to_saturate

    window, instructions = WORKLOAD_PROFILES.get(workload_name,
                                                 (256, 40))
    cpu = params.wimpy if system_name.lower() == "rpc-w" else params.cpu
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
    system_kwargs = dict(system_kwargs or {})
    if (system_name.lower() in ("rpc", "rpc-w", "cache+rpc")
            and "workers_per_node" not in system_kwargs):
        system_kwargs["workers_per_node"] = saturating_workers(
            system_name, workload_name, parameters)
    system = make_system(system_name, node_count, parameters, seed,
                         **system_kwargs)
    workload = build_workload(system, workload_name, node_count,
                              requests, seed, **(workload_kwargs or {}))
    stats = drive(system, workload.operations)
    energy = measure_energy(system_name, parameters,
                            stats.throughput_per_s, nodes=node_count,
                            workers_per_node=system.workers_per_node)
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
             params: Optional[SystemParams] = None,
             system_kwargs: Optional[dict] = None,
             workload_kwargs: Optional[dict] = None) -> CellResult:
    """Run one experiment cell end to end."""
    return _run_cell(
        lambda system, ops: run_workload(system, ops,
                                         concurrency=concurrency),
        system_name, workload_name, node_count, requests, seed, params,
        system_kwargs, workload_kwargs)


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


def ratio(numerator: float, denominator: float) -> float:
    if denominator == 0:
        return float("inf")
    return numerator / denominator
