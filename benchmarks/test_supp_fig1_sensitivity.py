"""Supplementary Fig 1: sensitivity to traversal length and core count.

* (a) end-to-end latency of a linked-list traversal scales linearly with
  the number of nodes traversed;
* (b) two pulse cores saturate the 25 GB/s per-node memory bandwidth;
  without the vendor interconnect IP (dedicated channel per core) the
  accelerator reaches ~34 GB/s.
"""

from conftest import save_table, scale_requests

from repro.bench.experiments import format_table, make_system
from repro.bench.driver import run_workload
from repro.params import DEFAULT_PARAMS
from repro.structures import LinkedList

HOPS = (8, 32, 128, 512)
CORES = (1, 2, 3, 4)


def _latency_vs_length():
    system = make_system("pulse", node_count=1)
    lst = LinkedList(system.memory, value_bytes=240)
    lst.extend((k, k) for k in range(1024))
    walker = lst.walk_iterator()
    points = []
    for hops in HOPS:
        stats = run_workload(system, [(walker, (hops,))] * 6,
                             concurrency=1)
        points.append((hops, stats.avg_latency_ns))
    return points


def _bandwidth_vs_cores():
    from repro.core import PulseCluster

    results = []
    for cores in CORES:
        for interconnect in ((True, False) if cores in (2, 4)
                             else (True,)):
            cluster = PulseCluster(node_count=1,
                                   cores_per_accelerator=cores,
                                   shared_interconnect=interconnect)
            lst = LinkedList(cluster.memory, value_bytes=240)
            lst.extend((k, k) for k in range(4096))
            walker = lst.walk_iterator()
            ops = [(walker, (64,))] * scale_requests(220)
            stats = run_workload(cluster, ops, concurrency=64)
            bytes_per_ns = (
                stats.metrics["counters"]["mem0.acc.bytes_loaded"]
                / stats.duration_ns)
            results.append((cores, interconnect, bytes_per_ns))
    return results


def test_supp_fig1a_latency_linear_in_traversal_length(once):
    points = once(_latency_vs_length)
    rows = [(hops, f"{ns/1000:.1f}") for hops, ns in points]
    save_table("supp_fig1a_length", format_table(
        ["hops", "avg_us"], rows))

    # Linear fit through the measured points: slope ~ per-iteration
    # pipeline time, intercept ~ fixed network path.
    xs = [h for h, _ in points]
    ys = [ns for _, ns in points]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    slope = (sum((x - mean_x) * (y - mean_y) for x, y in points)
             / sum((x - mean_x) ** 2 for x in xs))
    intercept = mean_y - slope * mean_x
    # Every point within 10% of the line: linear scaling (Fig 1a).
    for x, y in points:
        predicted = slope * x + intercept
        assert abs(y - predicted) / y < 0.10, (x, y, predicted)
    # Slope is the per-iteration time: memory pipeline + logic, ~130 ns
    # for a 256 B node.
    assert 100 <= slope <= 180, slope


def test_supp_fig1b_two_cores_saturate_bandwidth(once):
    results = once(_bandwidth_vs_cores)
    cap = DEFAULT_PARAMS.memory.bandwidth_bytes_per_ns
    rows = [(cores, "shared" if ic else "dedicated",
             f"{bw:.1f}", f"{bw/cap:.2f}")
            for cores, ic, bw in results]
    save_table("supp_fig1b_cores", format_table(
        ["cores", "interconnect", "GB/s", "vs 25GB/s cap"], rows))

    by_key = {(c, ic): bw for c, ic, bw in results}
    # One core cannot saturate; two cores reach >90% of the cap.
    assert by_key[(1, True)] < 0.75 * cap
    assert by_key[(2, True)] > 0.90 * cap
    # More cores stay capped by the interconnect (the plateau).
    assert by_key[(4, True)] < 1.05 * cap
    # Without the interconnect IP, the cap lifts (paper: ~34 GB/s).
    assert by_key[(4, False)] > 1.15 * cap
