"""Command-line experiment runner.

Usage::

    python -m repro.bench list
    python -m repro.bench compare --workload UPC --nodes 1 \
        --systems pulse,rpc,cache --requests 100
    python -m repro.bench cell --system pulse --workload TSV-7.5s \
        --nodes 2 --requests 50 --concurrency 8

``compare`` prints one figure-style row per system; ``cell`` dumps every
metric of a single cell.  The full per-figure regeneration lives in
``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.experiments import (
    SYSTEMS,
    WORKLOAD_NAMES,
    format_table,
    run_cell,
)


def _cmd_list(_args) -> int:
    print("systems:")
    for name, (rack, options) in SYSTEMS.items():
        spelled = ", ".join(f"{k}={v!r}" for k, v in options.items())
        print(f"  {name:<10} {rack.__name__}({spelled})")
    print("workloads:", ", ".join(WORKLOAD_NAMES))
    return 0


def _cmd_compare(args) -> int:
    systems = [s.strip() for s in args.systems.split(",") if s.strip()]
    rows = []
    for system in systems:
        cell = run_cell(system, args.workload, args.nodes,
                        requests=args.requests,
                        concurrency=args.concurrency, seed=args.seed)
        rows.append((
            system,
            f"{cell.avg_latency_us:.1f}",
            f"{cell.stats.percentile_latency_ns(99)/1e3:.1f}",
            f"{cell.throughput_kops:.1f}",
            f"{cell.memory_utilization:.2f}",
            f"{cell.energy.energy_per_request_uj:.1f}",
        ))
    print(format_table(
        ["system", "avg_us", "p99_us", "kops/s", "mem_util", "uJ/req"],
        rows))
    return 0


def _cmd_cell(args) -> int:
    cell = run_cell(args.system, args.workload, args.nodes,
                    requests=args.requests,
                    concurrency=args.concurrency, seed=args.seed)
    stats = cell.stats
    print(f"system               : {cell.system}")
    print(f"workload             : {cell.workload}")
    print(f"memory nodes         : {cell.nodes}")
    print(f"completed requests   : {stats.completed}")
    print(f"faults               : {stats.faults}")
    print(f"avg latency          : {cell.avg_latency_us:.2f} us")
    print(f"p50 / p99 latency    : "
          f"{stats.percentile_latency_ns(50)/1e3:.2f} / "
          f"{stats.percentile_latency_ns(99)/1e3:.2f} us")
    print(f"throughput           : {cell.throughput_kops:.1f} kops/s")
    print(f"avg iterations       : {stats.avg_iterations:.1f}")
    print(f"inter-node hops/req  : "
          f"{stats.total_hops / max(1, stats.completed):.2f}")
    print(f"memory bandwidth util: {cell.memory_utilization:.3f}")
    print(f"network util         : {cell.network_utilization:.4f}")
    print(f"serving power        : {cell.energy.power_watts:.1f} W "
          f"({cell.workers_per_node} workers/node)")
    print(f"energy per request   : "
          f"{cell.energy.energy_per_request_uj:.2f} uJ")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="pulse experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list systems and workloads")

    def add_common(p):
        p.add_argument("--workload", default="UPC",
                       choices=WORKLOAD_NAMES)
        p.add_argument("--nodes", type=int, default=1)
        p.add_argument("--requests", type=int, default=60)
        p.add_argument("--concurrency", type=int, default=8)
        p.add_argument("--seed", type=int, default=0)

    compare = sub.add_parser("compare",
                             help="run one workload on several systems")
    add_common(compare)
    compare.add_argument("--systems", default="pulse,rpc,cache")

    cell = sub.add_parser("cell", help="full metrics for one cell")
    add_common(cell)
    cell.add_argument("--system", default="pulse")

    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "compare":
        return _cmd_compare(args)
    return _cmd_cell(args)


if __name__ == "__main__":
    sys.exit(main())
