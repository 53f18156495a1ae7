"""Assemble the per-figure result tables into one markdown report.

``pytest benchmarks/ --benchmark-only`` leaves one text table per figure
under ``benchmarks/results/``; this module stitches them into a single
document (with the paper reference for each), so a full reproduction run
ends with one artifact to read::

    python -m repro.bench.report [results_dir] [output.md]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: file written by the benchmarks holding {system: registry.snapshot()}
METRICS_SNAPSHOT_FILE = "metrics_snapshot.json"

#: bump when the snapshot payload shape changes; consumers (CI diff
#: jobs, dashboards) key their parsers off this field
SCHEMA_VERSION = 1

#: repo root (this file lives at src/repro/bench/report.py)
REPO_ROOT = Path(__file__).resolve().parents[3]

#: accelerator span stages, in pipeline order (Fig 9's x-axis)
SPAN_STAGES = ("netstack", "scheduler", "memory", "logic")

#: figure order + captions; files are <key>.txt in the results dir
SECTIONS: List[Tuple[str, str, str]] = [
    ("table2_workloads", "Table 2 — workload characteristics",
     "η (compute/memory ratio) and average iterations per request."),
    ("fig4_latency", "Fig 4 — application latency",
     "Average/p99 latency per system, workload, and node count."),
    ("fig5_throughput", "Fig 5 — application throughput",
     "Saturating-load throughput and memory-bandwidth utilization."),
    ("fig6_bandwidth", "Fig 6 — bandwidth utilization",
     "Memory vs network bandwidth under saturating load."),
    ("fig7_energy", "Fig 7 — energy per request",
     "Serving power, throughput, and energy at saturation."),
    ("fig8_acc", "Fig 8 — in-switch routing vs pulse-ACC",
     "Latency and throughput with and without switch re-routing."),
    ("fig9_breakdown", "Fig 9 — accelerator latency breakdown",
     "Per-component times inside the accelerator."),
    ("supp_fig1a_length", "Supp Fig 1a — traversal length",
     "Latency vs linked-list hops (linear)."),
    ("supp_fig1b_cores", "Supp Fig 1b — cores vs bandwidth",
     "Memory bandwidth achieved per core count."),
    ("supp_fig2_allocation", "Supp Fig 2 — allocation policy",
     "Partitioned vs uniform placement on two nodes."),
    ("ablation_load_agg", "Ablation — aggregated LOAD (§4.1)",
     "Single covering load vs naive per-field loads."),
    ("ablation_pipelines", "Ablation — core organization (Fig 3)",
     "Workspaces and logic pipelines vs throughput."),
    ("sensitivity_eta_max", "Sensitivity — offload threshold η_max",
     "The offload/reject cliff."),
    ("sensitivity_max_iter", "Sensitivity — iteration budget",
     "Continuation cost of small MAX_ITER."),
    ("sensitivity_network", "Sensitivity — network latency (§1)",
     "Per-hop vs per-request wire cost as segments lengthen."),
    ("ext_multitenancy", "Extension — multi-tenant scheduling (Supp B)",
     "FIFO vs fair workspace scheduling under a scan flood."),
    ("ext_locality", "Extension — access-locality sensitivity (§2.1)",
     "Uniform vs Zipfian key skew for caching vs offloading."),
    ("ext_open_loop", "Extension — open-loop batched submission (§4.1)",
     "Throughput vs Poisson offered load across systems, and doorbell "
     "batch size vs achieved throughput / batch occupancy for pulse."),
    ("ext_goodput_loss", "Extension — goodput under per-link loss",
     "Goodput, delivery ratio, and per-hop retransmissions vs injected "
     "link loss for pulse and every baseline, with the reliable "
     "transport armed."),
    ("ext_migration", "Extension — elastic placement & live migration",
     "Zipfian YCSB p99 during a segment-migration storm (bounded, zero "
     "faults), and throughput recovery after cluster.add_node() plus "
     "rebalancing onto the new memory node."),
    ("ext_split_index", "Extension — client-resident split index",
     "Point-lookup p50 vs directory hit rate on a long-chain hash "
     "table: a hit is one direct READ at the owning node (one RTT, no "
     "traversal); misses and stale hints fall back to the offloaded "
     "traversal engine."),
    ("ext_affinity", "Extension — traversal-affinity placement",
     "placement.hops_per_traversal on graph and B+-tree workloads "
     "under multi-node Zipfian skew, before and after cut-edge-aware "
     "rebalancing of chain arenas (vs the heat-only objective)."),
    ("ext_recovery", "Extension — durability & crash recovery",
     "Zipfian finds over durably updated keys while a memory node "
     "crashes mid-run: zero lost acknowledged writes, zero faults, "
     "bounded time-to-recover, and a crash p99 within a fixed factor "
     "of the quiet rack (replicated redo logs + switch-side failover "
     "re-injection)."),
]


def write_snapshot(name: str, params: Dict, metrics: Dict,
                   derived: Optional[Dict] = None) -> Path:
    """Write one bench snapshot JSON with the repo-wide stable schema.

    Every benchmark that leaves a machine-readable artifact (CI uploads,
    gate checks, cross-run diffs) goes through this helper, so all
    snapshots share one shape::

        {"name": ..., "params": {...}, "metrics": {...}, "derived": {...}}

    ``params`` holds the knobs the run was configured with, ``metrics``
    the raw measurements, and ``derived`` any computed summary figures
    (speedups, percentile picks).  The one file written is
    ``BENCH_<name>.json`` at the repo root (``REPO_ROOT``), next to the
    README, where ROADMAP, CI's gates and the upload steps read it.
    """
    payload = {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "params": params,
        "metrics": metrics,
        "derived": derived if derived is not None else {},
    }
    path = REPO_ROOT / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def span_breakdown(snapshot: Dict) -> Dict[str, Dict[str, float]]:
    """Per-stage accelerator timing from one registry snapshot.

    Aggregates every ``<node>.acc.span.<stage>`` histogram across
    accelerators; ``mean_ns`` is the per-event service time (per message
    for netstack, per request for scheduler, per iteration for
    memory/logic) -- the quantities Fig 9 plots.
    """
    histograms = snapshot.get("histograms", {})
    breakdown: Dict[str, Dict[str, float]] = {}
    for stage in SPAN_STAGES:
        suffix = f".acc.span.{stage}"
        total = 0.0
        count = 0
        for name, hist in histograms.items():
            if name.endswith(suffix):
                total += hist.get("sum", 0.0)
                count += hist.get("count", 0)
        breakdown[stage] = {
            "total_ns": total,
            "count": count,
            "mean_ns": total / count if count else 0.0,
        }
    return breakdown


def latency_summary(snapshot: Dict) -> Optional[Dict[str, float]]:
    """The ``request.latency_ns`` histogram summary, if recorded."""
    hist = snapshot.get("histograms", {}).get("request.latency_ns")
    if not hist or not hist.get("count"):
        return None
    return hist


def render_metrics(snapshots: Dict[str, Dict]) -> List[str]:
    """Markdown lines for the observability section of the report."""
    lines: List[str] = []
    lat_rows = []
    for system, snapshot in sorted(snapshots.items()):
        summary = latency_summary(snapshot)
        if summary:
            lat_rows.append(
                f"| {system} | {summary['count']} "
                f"| {summary['mean']:.0f} | {summary['p50']:.0f} "
                f"| {summary['p99']:.0f} | {summary['p999']:.0f} |")
    if lat_rows:
        lines.append("Request latency from each system's "
                     "`request.latency_ns` histogram (ns):")
        lines.append("")
        lines.append("| system | requests | mean | p50 | p99 | p999 |")
        lines.append("|---|---|---|---|---|---|")
        lines.extend(lat_rows)
        lines.append("")
    for system, snapshot in sorted(snapshots.items()):
        breakdown = span_breakdown(snapshot)
        if not any(b["count"] for b in breakdown.values()):
            continue
        lines.append(f"Per-stage accelerator spans for {system} "
                     "(mean service time, Fig 9):")
        lines.append("")
        lines.append("| stage | events | mean ns |")
        lines.append("|---|---|---|")
        for stage in SPAN_STAGES:
            entry = breakdown[stage]
            lines.append(f"| {stage} | {entry['count']} "
                         f"| {entry['mean_ns']:.1f} |")
        lines.append("")
    return lines


def collect(results_dir: Path) -> Dict[str, str]:
    """Read every known results table that exists."""
    tables = {}
    for key, _title, _caption in SECTIONS:
        path = results_dir / f"{key}.txt"
        if path.exists():
            tables[key] = path.read_text().rstrip()
    return tables


def render(results_dir: Path) -> str:
    """The full markdown report (missing figures are noted, not fatal)."""
    tables = collect(results_dir)
    lines = [
        "# pulse — reproduction report",
        "",
        "Generated from the tables under "
        f"`{results_dir}`; regenerate with "
        "`pytest benchmarks/ --benchmark-only`. Paper-vs-measured "
        "commentary lives in EXPERIMENTS.md.",
        "",
    ]
    for key, title, caption in SECTIONS:
        lines.append(f"## {title}")
        lines.append("")
        lines.append(caption)
        lines.append("")
        if key in tables:
            lines.append("```")
            lines.append(tables[key])
            lines.append("```")
        else:
            lines.append(f"*not yet generated "
                         f"(run benchmarks/test_{key.split('_')[0]}*)*")
        lines.append("")
    snapshot_path = results_dir / METRICS_SNAPSHOT_FILE
    lines.append("## Observability — metrics registry")
    lines.append("")
    lines.append("Counters, gauges, and span histograms exported by "
                 "`MetricsRegistry.snapshot()` during the benchmark "
                 "runs (see docs/architecture.md, Observability).")
    lines.append("")
    if snapshot_path.exists():
        snapshots = json.loads(snapshot_path.read_text())
        lines.extend(render_metrics(snapshots))
    else:
        lines.append("*not yet generated "
                     "(run benchmarks/test_fig9_breakdown.py)*")
        lines.append("")
    missing = [key for key, _t, _c in SECTIONS if key not in tables]
    if missing:
        lines.append(f"Missing {len(missing)} of {len(SECTIONS)} "
                     f"tables: {', '.join(missing)}.")
    else:
        lines.append(f"All {len(SECTIONS)} tables present.")
    lines.append("")
    return "\n".join(lines)


def main() -> int:
    args = sys.argv[1:]
    results_dir = Path(args[0]) if args else \
        Path("benchmarks") / "results"
    report = render(results_dir)
    if len(args) > 1:
        Path(args[1]).write_text(report)
        print(f"wrote {args[1]}")
    else:
        print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
