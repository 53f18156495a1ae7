"""Fig 6: network and memory bandwidth utilization under saturating load.

Paper claims reproduced here:

* pulse, RPC, and RPC-W utilize >90% of the per-node memory bandwidth
  while consuming only a few percent of the network link;
* the Cache-based system is bottlenecked at its (software) network
  stack: its network traffic equals its memory traffic byte-for-byte
  (whole pages move for every access), and both sit far below the
  memory-bandwidth cap.
"""

from conftest import SATURATION_WORKLOADS, save_table, saturation_cells

from repro.bench.experiments import format_table

SYSTEMS = ("pulse", "rpc", "rpc-w", "cache")


def test_fig6_bandwidth_utilization(once):
    cells = once(saturation_cells, SYSTEMS)

    rows = []
    for (system, workload), cell in sorted(cells.items(),
                                           key=lambda kv: kv[0][::-1]):
        rows.append((workload, system,
                     f"{cell.memory_utilization:.2f}",
                     f"{cell.network_utilization:.3f}"))
    save_table("fig6_bandwidth", format_table(
        ["workload", "system", "mem_util", "net_util"], rows))

    for workload in SATURATION_WORKLOADS:
        for system in ("pulse", "rpc", "rpc-w"):
            cell = cells[(system, workload)]
            # Offloading systems saturate memory bandwidth (paper: >90%).
            assert cell.memory_utilization > 0.8, (system, workload)
            # ... with tiny network usage (paper: 0.92-3.7%).
            assert cell.network_utilization < 0.12, (system, workload)

        cache = cells[("cache", workload)]
        # The cache-based system never gets near the memory cap ...
        assert cache.memory_utilization < 0.5, workload
        assert cache.network_utilization > 0.05, workload
        # ... and its network bytes equal its memory bytes (pages are
        # the unit of both; the paper's "identical" observation).  The
        # link cap is 12.5 B/ns vs the 25 B/ns memory cap, so equal
        # bytes means net_util ~ 2x mem_util.
        assert (1.4 * cache.memory_utilization
                < cache.network_utilization
                < 2.6 * cache.memory_utilization), workload
