"""Supplementary Fig 2: allocation policy impact on distributed traversals.

Paper claim: with two memory nodes, uniformly distributed (glibc-like)
allocations suffer 3.7-10.8x higher average latency than an application-
directed partitioned allocation that keeps each half of the key space on
one node -- almost every leaf hop crosses nodes under uniform placement,
almost none under partitioning.
"""

from conftest import save_table, scale_requests

from repro.bench.experiments import Cell, format_table, run_cells

WORKLOADS = ("TC", "TSV-7.5s")


def _cells():
    cells = {}
    for workload in WORKLOADS:
        for policy in ("uniform", "partitioned"):
            options = {"partitioned": policy == "partitioned"}
            if policy == "uniform":
                # Pure per-allocation round-robin (glibc load-balanced),
                # the worst case the supplementary material measures.
                options["interleave"] = 1
            cells[(workload, policy)] = Cell(
                "pulse", workload, 2, scale_requests(30),
                workload_options=options)
    return cells


def test_supp_fig2_allocation_policy(once):
    cells = once(run_cells, _cells())

    rows = []
    for (workload, policy), cell in sorted(cells.items()):
        rows.append((workload, policy,
                     f"{cell.avg_latency_us:.1f}",
                     f"{cell.stats.total_hops / max(1, cell.stats.completed):.1f}"))
    save_table("supp_fig2_allocation", format_table(
        ["workload", "policy", "avg_us", "hops/req"], rows))

    for workload in WORKLOADS:
        uniform = cells[(workload, "uniform")]
        partitioned = cells[(workload, "partitioned")]
        slowdown = (uniform.avg_latency_us
                    / partitioned.avg_latency_us)
        # Paper: 3.7-10.8x higher latency for uniform allocation.
        assert slowdown > 2.5, (workload, slowdown)
        # The mechanism: hop counts diverge by orders of magnitude.
        uniform_hops = (uniform.stats.total_hops
                        / max(1, uniform.stats.completed))
        part_hops = (partitioned.stats.total_hops
                     / max(1, partitioned.stats.completed))
        assert uniform_hops > 10 * max(0.5, part_hops), workload
