"""Layer attribution: module -> layer map, cProfile bucketing, and the
modeled per-layer counts read from ``metrics_snapshot()``.

Attribution is taken entirely from outside the program: cProfile's
per-function self time and call counts are bucketed by the module that
defines the function, and time in builtins, numpy and the standard
library is handed to the modules that called them through the
profiler's caller table.
"""

from __future__ import annotations

from pathlib import PurePath
from typing import Dict, Iterable, List, Optional, Tuple

LAYERS = (
    "sim.engine", "sim.resources", "sim.network", "transport",
    "core.client", "core.switch", "core.accelerator", "core.other",
    "isa.scalar", "isa.batchmachine", "mem", "placement", "durability",
    "index", "obs", "shard", "loadgen",
)

LAYER_OF_MODULE = {
    "repro.sim.engine": "sim.engine",
    "repro.sim.resources": "sim.resources",
    "repro.sim.network": "sim.network",
    "repro.sim": "sim.engine",
    "repro.sim.trace": "obs",
    "repro.transport": "transport",
    "repro.core.client": "core.client",
    "repro.core.switch": "core.switch",
    "repro.core.accelerator": "core.accelerator",
    "repro.core": "core.other",
    "repro.params": "core.other",
    "repro.isa": "isa.scalar",
    "repro.isa.batchmachine": "isa.batchmachine",
    "repro.mem": "mem",
    "repro.placement": "placement",
    "repro.durability": "durability",
    "repro.index": "index",
    "repro.obs": "obs",
    "repro.shard": "shard",
    "repro.structures": "loadgen",
    "repro.workloads": "loadgen",
    "perfbench": "loadgen",
}

#: packages no benchmark workload executes; time seen in them is reported
#: as unattributed rather than hidden in a layer
OFF_PATH = ("repro.baselines", "repro.bench", "repro.compat", "repro.energy")


def module_of_file(filename: str) -> Optional[str]:
    """Dotted module name of a source file under ``repro`` or ``perfbench``."""
    parts = PurePath(filename).with_suffix("").parts
    for root in ("repro", "perfbench"):
        if root in parts:
            # the last occurrence: a checkout may itself live under .../repro/
            start = len(parts) - 1 - parts[::-1].index(root)
            dotted = parts[start:]
            if dotted[-1] == "__init__":
                dotted = dotted[:-1]
            return ".".join(dotted)
    return None


def layer_of_module(module: str) -> Optional[str]:
    """The layer a module belongs to (longest dotted prefix wins); None
    when it is off the benchmark's path.  Raises ``KeyError`` for a module
    the map does not know, so a new package cannot go unattributed."""
    prefix = module
    while "." in prefix:
        if prefix in LAYER_OF_MODULE:
            return LAYER_OF_MODULE[prefix]
        if prefix in OFF_PATH:
            return None
        prefix = prefix.rpartition(".")[0]
    if prefix in LAYER_OF_MODULE:
        return LAYER_OF_MODULE[prefix]
    if module == "repro":  # the package's own __init__
        return None
    raise KeyError(f"no layer for module {module!r}")


# -- cProfile bucketing -------------------------------------------------------
Func = Tuple[str, int, str]


def bucket_profile(stats: Dict[Func, tuple]) -> dict:
    """Self seconds and call counts per layer from a ``cProfile.Profile``'s
    ``stats`` (``{func: (cc, nc, tt, ct, {caller: (nc, cc, tt, ct)})}``).

    Returns ``{"seconds": {layer: s}, "calls": {layer: n}, "total": s,
    "unattributed": s, "heap_pops": n, "window_hooks": n}``.  Calls count
    only functions the layer's own modules define, so they repeat exactly;
    seconds include the foreign (builtin, numpy, stdlib) time each layer's
    functions caused.
    """
    own: Dict[Func, Optional[str]] = {}
    for func in stats:
        module = module_of_file(func[0])
        if module is not None:
            own[func] = layer_of_module(module)

    seconds = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    unattributed = 0.0
    shares_memo: Dict[Func, Dict[Optional[str], float]] = {}

    def shares(func: Func, trail: frozenset) -> Dict[Optional[str], float]:
        """How a foreign function's self time splits over layers."""
        if func in own:
            return {own[func]: 1.0}
        if func in shares_memo:
            return shares_memo[func]
        callers = stats[func][4]
        weight = sum(entry[2] for entry in callers.values())
        split: Dict[Optional[str], float] = {}
        if not callers or weight <= 0.0 or func in trail:
            split[None] = 1.0
        else:
            for caller, entry in callers.items():
                for layer, share in shares(caller, trail | {func}).items():
                    split[layer] = (split.get(layer, 0.0)
                                    + share * entry[2] / weight)
        if not trail:
            shares_memo[func] = split
        return split

    heap_pops = window_hooks = 0
    for func, (_cc, ncalls, self_s, _cum, callers) in stats.items():
        layer = own.get(func)
        if layer is not None:
            calls[layer] += ncalls
        for target, share in shares(func, frozenset()).items():
            if target is None:
                unattributed += self_s * share
            else:
                seconds[target] += self_s * share
        if func[2] == "<built-in method _heapq.heappop>":
            heap_pops += sum(entry[0] for caller, entry in callers.items()
                             if own.get(caller) == "sim.engine")
        if func[2] == "_window_hook" and layer == "shard":
            window_hooks += ncalls
    total = sum(seconds.values()) + unattributed
    return {"seconds": seconds, "calls": calls, "total": total,
            "unattributed": unattributed, "heap_pops": heap_pops,
            "window_hooks": window_hooks}


# -- modeled per-layer counts -------------------------------------------------
#: Fig 9 stage constants (ns) the repo's timing model is validated against
FIG9_NS = {"netstack": 430.0, "scheduler": 4.0, "memory": 120.0,
           "logic": 7.0}


def _total(values: Dict[str, float], suffix: str, prefix: str = "") -> float:
    return sum(value for name, value in values.items()
               if name.endswith(suffix) and name.startswith(prefix))


def _hists(snapshot: dict, suffix: str) -> List[dict]:
    return [hist for name, hist in snapshot["histograms"].items()
            if name.endswith(suffix)]


def _pooled_mean(hists: Iterable[dict]) -> float:
    count = sum(h["count"] for h in hists)
    return sum(h["sum"] for h in hists) / count if count else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def modeled_counts(snapshot: dict, requests: int,
                   requests_since_build: int) -> Dict[str, float]:
    """Per-layer modeled metrics of one measured window.

    ``requests`` is the number of requests that arrived in the window;
    ``requests_since_build`` scales the one cumulative gauge
    (``placement.hot.samples`` is not reset by ``begin_measurement``).
    """
    counters, gauges = snapshot["counters"], snapshot["gauges"]
    out = {
        "net.msgs_per_req":
            _ratio(counters.get("net.delivered_messages", 0), requests),
        "net.bytes_per_req":
            _ratio(_total(counters, ".tx_bytes", "net."), requests),
        "net.delivery_ratio": gauges.get("net.delivery_ratio", 1.0),
        "tp.segments_per_req":
            _ratio(_total(counters, ".tp.tx_segments"), requests),
        "tp.acks_per_req": _ratio(_total(counters, ".tp.acks_tx"), requests),
        "tp.retransmits": _total(counters, ".tp.retransmits"),
        "client.reqs_per_doorbell":
            _pooled_mean(_hists(snapshot, ".client.batch_occupancy")),
        "client.admission_retries":
            _total(counters, ".client.admission_retries"),
        "switch.routed_per_req":
            _ratio(counters.get("switch.routed_to_memory", 0), requests),
        "switch.reroutes_per_req":
            _ratio(counters.get("switch.rerouted_node_to_node", 0), requests),
        "switch.batch_splits_per_req":
            _ratio(counters.get("switch.batch_splits", 0), requests),
        "acc.iterations_per_req":
            _ratio(_total(counters, ".acc.iterations"), requests),
        "acc.instructions_per_iter":
            _ratio(_total(counters, ".acc.instructions"),
                   _total(counters, ".acc.iterations")),
        "acc.admission_nacks": _total(counters, ".acc.admission_nacks"),
        "acc.queue_depth_p99": max(
            (h["p99"] for h in _hists(snapshot, ".acc.queue_depth")),
            default=0.0),
        "batch.lanes_active_mean":
            _pooled_mean(_hists(snapshot, ".acc.batch.lanes_active")),
        "batch.steps_per_req":
            _ratio(_total(counters, ".acc.batch.steps"), requests),
        "batch.demotions": _total(counters, ".acc.batch.demotions"),
        "tlb.hit_ratio":
            _ratio(_total(counters, ".acc.tlb.hits"),
                   _total(counters, ".acc.tlb.hits")
                   + _total(counters, ".acc.tlb.misses")),
        "dram.bytes_per_req":
            _ratio(_total(counters, ".acc.bytes_loaded"), requests),
        "dur.records_per_flush":
            _ratio(_total(counters, ".dur.records"),
                   _total(counters, ".dur.flushes")),
        "dur.commit_waits_per_req":
            _ratio(_total(counters, ".dur.commit_waits"), requests),
        "dur.replica_records_per_req":
            _ratio(_total(counters, ".dur.replica_tx_records"), requests),
        "dur.degraded_commits": _total(counters, ".dur.degraded_commits"),
        "placement.hot_samples_per_req":
            _ratio(gauges.get("placement.hot.samples", 0),
                   requests_since_build),
    }
    utilization = [value for name, value in gauges.items()
                   if name.endswith(".acc.memory_pipeline_utilization")]
    out["acc.mem_pipeline_util"] = _ratio(sum(utilization), len(utilization))
    latency_sum = snapshot["histograms"].get(
        "request.latency_ns", {}).get("sum", 0.0)
    worst = 0.0
    for stage, reference in FIG9_NS.items():
        hists = _hists(snapshot, f".acc.span.{stage}")
        mean = _pooled_mean(hists)
        out[f"span.{stage}_ns"] = mean
        out[f"span_share.{stage}"] = _ratio(
            sum(h["sum"] for h in hists), latency_sum)
        worst = max(worst, abs(mean - reference) / reference * 100.0)
    out["ref.fig9_err_pct"] = worst
    return out
