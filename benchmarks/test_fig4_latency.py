"""Fig 4: application latency across systems, workloads, and node counts.

Paper claims reproduced here:

* pulse has 10-64x lower latency than the Cache-based system;
* single-node latency is comparable to RPC (RPC up to ~1.25x lower due
  to its higher clock);
* with multiple memory nodes pulse is 42-55% *lower* latency than RPC
  (in-switch re-routing);
* Cache+RPC (UPC, single node) is no better than RPC;
* latency rises when traversals span nodes, and the Cache-based system
  does relatively better on TSV (chronological locality).
"""

from conftest import save_table, scale_requests

from repro.bench.experiments import (
    WORKLOAD_NAMES,
    Cell,
    format_table,
    run_cells,
    scaled_requests,
)

NODE_COUNTS = (1, 2, 4)
SYSTEMS = ("pulse", "cache", "rpc", "rpc-w")


def _cells():
    cells = {}
    for workload in WORKLOAD_NAMES:
        base = scale_requests(scaled_requests(workload, 24))
        for nodes in NODE_COUNTS:
            for system in SYSTEMS:
                cells[(system, workload, nodes)] = Cell(system, workload,
                                                        nodes, base)
    # Cache+RPC (UPC on one node only) at the last column's requests
    cells[("cache+rpc", "UPC", 1)] = Cell("cache+rpc", "UPC", 1, base)
    return cells


def test_fig4_application_latency(once):
    cells = once(run_cells, _cells())

    rows = []
    for (system, workload, nodes), cell in sorted(
            cells.items(), key=lambda kv: (kv[0][1], kv[0][2], kv[0][0])):
        rows.append((workload, nodes, system,
                     f"{cell.avg_latency_us:.1f}",
                     f"{cell.stats.percentile_latency_ns(99)/1e3:.1f}",
                     f"{cell.stats.total_hops / max(1, cell.stats.completed):.1f}"))
    save_table("fig4_latency", format_table(
        ["workload", "nodes", "system", "avg_us", "p99_us",
         "hops/req"], rows))

    def latency(system, workload, nodes):
        return cells[(system, workload, nodes)].avg_latency_us

    for workload in WORKLOAD_NAMES:
        pulse_1 = latency("pulse", workload, 1)
        cache_1 = latency("cache", workload, 1)
        rpc_1 = latency("rpc", workload, 1)
        # pulse crushes the cache-based system (paper: 10-64x; in our
        # scaled setup TSV's chronological locality pulls its ratio
        # toward the low end, exactly the relative trend of section 7.1).
        floor = {"UPC": 15.0, "TC": 8.0}.get(workload, 4.0)
        assert cache_1 / pulse_1 > floor, workload
        # ... but is comparable to RPC single-node (paper: RPC up to
        # ~1.25x lower).
        assert 0.6 <= pulse_1 / rpc_1 <= 2.0, workload
        # No fault anywhere.
        for system in SYSTEMS:
            assert cells[(system, workload, 1)].stats.faults == 0

    # Multi-node: pulse beats RPC on the non-partitionable workloads
    # (paper: 42-55% lower latency).
    for workload in ("TC", "TSV-7.5s", "TSV-30s"):
        for nodes in (2, 4):
            pulse_n = latency("pulse", workload, nodes)
            rpc_n = latency("rpc", workload, nodes)
            reduction = 1 - pulse_n / rpc_n
            assert reduction > 0.25, (workload, nodes, reduction)

    # UPC is partitioned by key: no inter-node traversals, so latency is
    # flat across node counts (section 7.1).
    upc_cells = [cells[("pulse", "UPC", n)] for n in NODE_COUNTS]
    assert all(c.stats.total_hops == 0 for c in upc_cells)
    spread = (max(c.avg_latency_us for c in upc_cells)
              / min(c.avg_latency_us for c in upc_cells))
    assert spread < 1.3

    # Multi-node traversals cost more than single-node (TC: hops appear).
    assert latency("pulse", "TC", 2) > latency("pulse", "TC", 1)

    # Cache+RPC brings no improvement over RPC for pointer chasing.
    assert (cells[("cache+rpc", "UPC", 1)].avg_latency_us
            >= 0.95 * latency("rpc", "UPC", 1))

    # Cache-based fares relatively better on TSV than on UPC
    # (chronological locality; section 7.1).
    cache_ratio_upc = latency("cache", "UPC", 1) / latency("pulse", "UPC", 1)
    cache_ratio_tsv = (latency("cache", "TSV-7.5s", 1)
                       / latency("pulse", "TSV-7.5s", 1))
    assert cache_ratio_tsv < cache_ratio_upc
