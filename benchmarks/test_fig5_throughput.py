"""Fig 5: application throughput across systems, workloads, node counts.

Paper claims reproduced here:

* pulse achieves 14.8-135.4x the Cache-based system's throughput;
* single-node throughput is close to the RPC schemes (all saturate the
  same memory bandwidth);
* with multiple nodes pulse reaches 1.14-2.28x RPC's throughput on
  workloads with inter-node traversals;
* throughput scales with the number of memory nodes (more accelerators/
  CPUs), except where traversals serialize across nodes.
"""

from conftest import save_table, scale_requests

from repro.bench.experiments import (
    THROUGHPUT_CONCURRENCY,
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
        base = scale_requests(scaled_requests(workload, 120))
        for nodes in NODE_COUNTS:
            for system in SYSTEMS:
                # "Sufficient load" scales with the rack: more nodes
                # need more outstanding requests to saturate.
                cells[(system, workload, nodes)] = Cell(
                    system, workload, nodes, min(2, nodes) * base,
                    concurrency=THROUGHPUT_CONCURRENCY * min(2, nodes))
    # Cache+RPC (UPC on one node only) at the last column's requests
    cells[("cache+rpc", "UPC", 1)] = Cell(
        "cache+rpc", "UPC", 1, base, concurrency=THROUGHPUT_CONCURRENCY)
    return cells


def test_fig5_application_throughput(once):
    cells = once(run_cells, _cells())

    rows = []
    for (system, workload, nodes), cell in sorted(
            cells.items(), key=lambda kv: (kv[0][1], kv[0][2], kv[0][0])):
        rows.append((workload, nodes, system,
                     f"{cell.throughput_kops:.1f}",
                     f"{cell.memory_utilization:.2f}"))
    save_table("fig5_throughput", format_table(
        ["workload", "nodes", "system", "kops/s", "mem_util"], rows))

    def tput(system, workload, nodes):
        return cells[(system, workload, nodes)].throughput_kops

    for workload in WORKLOAD_NAMES:
        # pulse >> cache-based (paper: 14.8-135.4x).
        assert tput("pulse", workload, 1) / tput("cache", workload, 1) \
            > 8, workload
        # pulse ~ RPC single node (same bandwidth bound).
        assert 0.7 <= (tput("pulse", workload, 1)
                       / tput("rpc", workload, 1)) <= 1.6, workload

    # Multi-node: pulse >= RPC on inter-node workloads (1.14-2.28x).
    for workload in ("TC", "TSV-7.5s"):
        for nodes in (2, 4):
            advantage = (tput("pulse", workload, nodes)
                         / tput("rpc", workload, nodes))
            assert advantage >= 1.0, (workload, nodes, advantage)

    # Throughput grows with nodes for the partitionable workload.
    assert tput("pulse", "UPC", 4) > 1.5 * tput("pulse", "UPC", 1)
    assert tput("rpc", "UPC", 4) > 1.5 * tput("rpc", "UPC", 1)

    # Cache+RPC is in RPC's ballpark, not better (section 7.1).
    assert (tput("cache+rpc", "UPC", 1)
            <= 1.25 * tput("rpc", "UPC", 1))
