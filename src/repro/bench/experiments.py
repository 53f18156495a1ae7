"""One harness for every table and figure.

A :class:`Cell` is a frozen key -- system, workload, node count,
requests, seed, drive, params and options -- and ``Cell.run()`` builds
the rack, builds the workload against its memory, replays the
operation stream, and collects latency/throughput/utilization/energy.
:func:`run_cells` is the one runner: it computes each key once per
process and fans the new ones out over forked workers.  Figs 4-9,
Supp Fig 2, ``ablation_pipelines``, ``open_loop_submission``,
``sensitivity_network``, the ``python -m repro.bench`` CLI and the
harness tests are views over keys: they declare cells and read rows.

The benches that are not one rack, one :func:`build_workload` stream
and one drive keep their own loop: ``ablation_load_agg`` (two drives on
one rack), ``ext_affinity`` (rebalancing between drives),
``ext_goodput_loss`` (link loss), ``ext_locality`` (its own hash table
and keys, and a warmup), ``ext_migration`` (a migration storm, an added
node), ``ext_multitenancy`` (two tenants' lists), ``ext_recovery`` (a
node crash), ``ext_split_index`` (a client directory),
``sensitivity_params`` (the offload decision, and a TSV duration
:func:`build_workload` does not build), ``supp_fig1`` (linked-list
walks), ``table2_workloads`` (the programs' static eta) and
``wallclock`` (times ``Cell.run()`` in its own process).

Workload sizes are scaled down from the paper (see DESIGN.md) but the
ratios the figures report are size-independent within wide margins:
traversal lengths, eta, and cache:data ratios are preserved.
"""

from __future__ import annotations

import multiprocessing
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Mapping, Optional, Sequence, Tuple

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
    """Everything measured for one cell."""

    cell: "Cell"
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


#: latency cells run lightly loaded; throughput cells run saturating
LATENCY_CONCURRENCY = 4
THROUGHPUT_CONCURRENCY = 96


@dataclass(frozen=True)
class Cell:
    """One grid key.  The drive is a closed loop of ``concurrency``
    workers, or Poisson arrivals at ``offered_load_per_s`` when that is
    set.  The rack's and the workload builder's keywords are given as
    mappings and held as sorted item tuples, so equal cells hash equal;
    an RPC rack without ``workers_per_node`` gets
    :func:`saturating_workers`."""

    system: str
    workload: str
    nodes: int = 1
    requests: int = 50
    seed: int = 0
    concurrency: int = LATENCY_CONCURRENCY
    offered_load_per_s: Optional[float] = None
    params: SystemParams = DEFAULT_PARAMS
    system_options: Tuple[Tuple[str, Any], ...] = ()
    workload_options: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self):
        for name in ("system_options", "workload_options"):
            object.__setattr__(self, name, tuple(sorted(
                dict(getattr(self, name)).items())))

    def run(self) -> CellResult:
        """Build the rack and the workload, drive it and measure it, in
        this process."""
        workload_family(self.workload)  # no rack is built for a bad name
        system_options = dict(self.system_options)
        if (issubclass(_system(self.system)[0], RpcSystem)
                and "workers_per_node" not in system_options):
            system_options["workers_per_node"] = saturating_workers(
                self.system, self.workload, self.params)
        system = make_system(self.system, self.nodes, self.params,
                             self.seed, **system_options)
        operations = build_workload(
            system, self.workload, self.nodes, self.requests, self.seed,
            **dict(self.workload_options)).operations
        if self.offered_load_per_s is None:
            stats = run_workload(system, operations,
                                 concurrency=self.concurrency)
        else:
            stats = run_open_loop(system, operations,
                                  self.offered_load_per_s, seed=self.seed)
        return CellResult(
            cell=self,
            stats=stats,
            memory_utilization=system.memory_bandwidth_utilization(),
            network_utilization=system.network_bandwidth_utilization(),
            workers_per_node=system.workers_per_node,
            energy=measure_energy(system, stats.throughput_per_s),
        )


#: every cell this process has run or received from a worker
_RESULTS: Dict[Cell, CellResult] = {}


def run_cells(cells: Mapping[Hashable, Cell]) -> Dict[Hashable, CellResult]:
    """The result of each labelled cell.

    A process runs each key at most once: the keys it has not seen
    fan out over ``min(os.cpu_count(), misses)`` workers forked from
    the (single-threaded) caller, and every later call reads the memo.
    """
    misses = [cell for cell in dict.fromkeys(cells.values())
              if cell not in _RESULTS]
    if misses:
        with ProcessPoolExecutor(
                min(os.cpu_count() or 1, len(misses)),
                mp_context=multiprocessing.get_context("fork")) as pool:
            _RESULTS.update(zip(misses, pool.map(Cell.run, misses)))
    return {label: _RESULTS[cell] for label, cell in cells.items()}


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
