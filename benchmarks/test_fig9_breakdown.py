"""Fig 9: latency breakdown inside the pulse accelerator (hash table).

Paper values, per component: network stack ~430 ns per direction,
scheduler dispatch ~4 ns, memory pipeline ~120 ns per iteration
(translation + protection + fetch), logic pipeline ~7 ns per iteration
for the linked-list traversal; the response path mirrors the request
path.
"""

import json

from conftest import RESULTS_DIR, save_table, scale_requests

from repro.bench.experiments import Cell, format_table, run_cells
from repro.bench.report import span_breakdown

CELL = Cell("pulse", "UPC", 1, scale_requests(40), concurrency=1,
            workload_options={"num_pairs": 10_000, "chain_length": 200})


def _measure():
    run = run_cells({"fig9": CELL})["fig9"].stats
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "metrics_snapshot.json").write_text(
        json.dumps({"pulse": run.metrics}, indent=2) + "\n")
    spans = span_breakdown(run.metrics)
    counters = run.metrics["counters"]
    return {
        "netstack_ns": spans["netstack"]["mean_ns"],
        "scheduler_ns": spans["scheduler"]["mean_ns"],
        "memory_ns": spans["memory"]["mean_ns"],
        "logic_ns": spans["logic"]["mean_ns"],
        "iterations": (counters["mem0.acc.iterations"]
                       / max(1, counters["mem0.acc.requests"])),
    }


PAPER = {
    "netstack_ns": 430.0,
    "scheduler_ns": 4.0,
    "memory_ns": 120.0,
    "logic_ns": 7.0,
}


def test_fig9_accelerator_latency_breakdown(once):
    measured = once(_measure)

    rows = [(key, f"{measured[key]:.1f}", f"{PAPER[key]:.1f}")
            for key in PAPER]
    rows.append(("iterations/request",
                 f"{measured['iterations']:.1f}", "~100"))
    save_table("fig9_breakdown", format_table(
        ["component", "sim_ns", "paper_ns"], rows))

    assert measured["netstack_ns"] == PAPER["netstack_ns"]
    assert measured["scheduler_ns"] == PAPER["scheduler_ns"]
    # Memory pipeline: translation + protection + 256 B fetch ~ 120 ns.
    assert 100 <= measured["memory_ns"] <= 140
    # Logic: ~7 instructions for the chained-hash iteration.
    assert 5 <= measured["logic_ns"] <= 9
    # The traversal dominates end-to-end time: iterations x (mem+logic)
    # >> fixed costs, the structure Fig 9 conveys.
    traversal = measured["iterations"] * (measured["memory_ns"]
                                          + measured["logic_ns"])
    fixed = 2 * measured["netstack_ns"] + measured["scheduler_ns"]
    assert traversal > 5 * fixed
