"""Extension: traversal-affinity placement -- cut-edge rebalancing.

The claim beyond PR 5's heat/fill rebalancer: a depth-d traversal pays
one switch hop (plus a transport checkpoint) every time its chain
crosses a memory-node boundary, and neither heat nor fill objectives
can see those crossings.  The affinity stack can: structures allocate
into per-chain arenas, the hotness tracker samples *successor edges*
(load in segment A followed by a load in segment B within one
traversal), and the rebalancer's cut phase greedily migrates chain
arenas next to their heaviest neighbors.

Both workloads interleave their structure across a 3-node rack
(``placement=lambda o: o % 3``, how a load-balanced allocator lays out
a grown structure) and drive Zipfian-skewed traffic at it:

* **graph** -- BFS neighbor expansion over a binary tree, roots
  Zipfian-skewed toward the top of the tree;
* **btree** -- B+Tree point lookups, keys Zipfian-skewed.

Per workload we measure ``placement.hops_per_traversal`` (switch
reroutes / traversals returned) on the same operation stream three
ways: before any rebalancing, after rounds of the *heat-only* rebalancer
(``cut_edge_objective=False`` -- PR 5's objectives, which find nothing
to do on a fill-balanced rack), and after rounds of the cut-edge
rebalancer.  The acceptance gate: cut-edge rebalancing cuts hops per
traversal by >= 30% against both.

``hot_skew_threshold`` is set high so the comparison isolates the
*objective*: with heat spread evened by Zipfian sampling noise, the old
rebalancer is quiet, while the cut phase has real work.

Writes ``ext_affinity.txt`` (report table) and
repo-root ``BENCH_affinity.json`` (uploaded by CI's ext-affinity job).
"""

from conftest import save_table, scale_requests

from repro.bench.driver import run_workload
from repro.bench.experiments import format_table
from repro.bench.report import write_snapshot
from repro.core import PulseCluster
from repro.params import MB, PlacementParams, SystemParams
from repro.structures import BPlusTree, DisaggregatedGraph
from repro.workloads import ZipfianKeyGenerator

NODE_COUNT = 3
NODE_CAPACITY = 8 * MB
CONCURRENCY = 16

GRAPH_VERTICES = 600
BFS_VISITS = 24
BTREE_KEYS = 3_000
BTREE_FANOUT = 8
REBALANCE_ROUNDS = 30


def affinity_params(cut: bool) -> SystemParams:
    return SystemParams().with_overrides(placement=PlacementParams(
        # Segment == arena extent: heat, edges, and migration all move
        # at chain granularity.
        segment_bytes=4096,
        # Sample every load: the bench runs are short, and the point is
        # the objective, not the estimator's convergence rate.
        sample_period=1,
        # Long half-life so the edges sampled while measuring "before"
        # are still warm when the rebalancer plans its moves.
        hot_halflife_ns=100_000_000.0,
        # Quiet the heat phase (see module docstring): co-locating the
        # hot set *concentrates* heat by design, and a heat objective
        # that then sheds it again would just undo the cut phase.
        hot_skew_threshold=50.0,
        fill_imbalance_threshold=0.10,
        migrations_per_round=8,
        cut_edge_objective=cut,
        cut_min_gain=0.5,
    ))


def build_graph_rack(cut: bool, seed: int):
    cluster = PulseCluster(node_count=NODE_COUNT,
                           params=affinity_params(cut),
                           node_capacity=NODE_CAPACITY, seed=seed)
    graph = DisaggregatedGraph(cluster.memory,
                               placement=lambda o: o % NODE_COUNT)
    for vertex in range(GRAPH_VERTICES):
        graph.add_vertex(vertex, vertex)
    for vertex in range(GRAPH_VERTICES):
        for child in (2 * vertex + 1, 2 * vertex + 2):
            if child < GRAPH_VERTICES:
                graph.add_edge(vertex, child)
    bfs = graph.bfs_iterator(queue_capacity=64, max_visits=BFS_VISITS)
    zipf = ZipfianKeyGenerator(list(range(GRAPH_VERTICES)), seed=seed)
    requests = scale_requests(160)
    operations = [(bfs, (zipf.next_key(),)) for _ in range(requests)]
    return cluster, operations


def build_btree_rack(cut: bool, seed: int):
    cluster = PulseCluster(node_count=NODE_COUNT,
                           params=affinity_params(cut),
                           node_capacity=NODE_CAPACITY, seed=seed)
    tree = BPlusTree(cluster.memory, fanout=BTREE_FANOUT,
                     placement=lambda o: o % NODE_COUNT)
    tree.bulk_load([(key, key) for key in range(BTREE_KEYS)])
    lookup = tree.lookup_iterator()
    zipf = ZipfianKeyGenerator(list(range(BTREE_KEYS)), seed=seed)
    requests = scale_requests(320)
    operations = [(lookup, (zipf.next_key(),)) for _ in range(requests)]
    return cluster, operations


def measured_hops(cluster, stats) -> float:
    """Inter-node hops per completed traversal over the measured window.

    ``run_workload`` calls ``begin_measurement()`` at its first
    operation, which zeroes the switch counters, so the cumulative
    ratio (the ``placement.hops_per_traversal`` gauge) *is* the
    per-window value.
    """
    assert stats.faults == 0
    return cluster.switch.hops_per_traversal()


def rebalance_to_fixpoint(cluster) -> int:
    """Run rebalance rounds until two consecutive rounds move nothing."""
    moved_total = 0
    quiet = 0
    for _ in range(REBALANCE_ROUNDS):
        proc = cluster.rebalance_once()
        cluster.env.run(until=proc)
        moved = proc.value or 0
        moved_total += moved
        quiet = quiet + 1 if moved == 0 else 0
        if quiet >= 2:
            break
    return moved_total


def run_mode(build, cut: bool, seed: int):
    """One (workload, objective) cell: warm run, rebalance, re-run."""
    cluster, operations = build(cut, seed)
    before = run_workload(cluster, operations, concurrency=CONCURRENCY)
    hops_before = measured_hops(cluster, before)
    moved = rebalance_to_fixpoint(cluster)
    after = run_workload(cluster, operations, concurrency=CONCURRENCY)
    hops_after = measured_hops(cluster, after)
    return {
        "hops_before": hops_before,
        "hops_after": hops_after,
        "bytes_moved": moved,
        "cut_moves": cluster.placement.rebalancer.cut_moves,
        "edges_sampled": cluster.placement.tracker.edge_samples,
        "p99_before_ns": before.percentile_latency_ns(99.0),
        "p99_after_ns": after.percentile_latency_ns(99.0),
    }


def run_workload_pair(build, seed: int):
    heat_only = run_mode(build, cut=False, seed=seed)
    cut = run_mode(build, cut=True, seed=seed)
    return {"heat_only": heat_only, "cut": cut}


def test_ext_affinity(once):
    results = once(lambda: {
        "graph": run_workload_pair(build_graph_rack, seed=7),
        "btree": run_workload_pair(build_btree_rack, seed=11),
    })

    rows = []
    for workload in ("graph", "btree"):
        for mode in ("heat_only", "cut"):
            cell = results[workload][mode]
            rows.append((
                workload, mode.replace("_", "-"),
                f"{cell['hops_before']:.3f}",
                f"{cell['hops_after']:.3f}",
                f"{cell['cut_moves']}",
                f"{cell['bytes_moved']}",
            ))
    save_table("ext_affinity", format_table(
        ["workload", "objective", "hops_before", "hops_after",
         "cut_moves", "bytes_moved"], rows))

    derived = {}
    for workload in ("graph", "btree"):
        cut = results[workload]["cut"]
        heat = results[workload]["heat_only"]
        derived[workload] = {
            "reduction_vs_before":
                1.0 - cut["hops_after"] / cut["hops_before"],
            "reduction_vs_heat_only":
                1.0 - cut["hops_after"] / max(heat["hops_after"], 1e-9),
        }
    write_snapshot(
        "affinity",
        params={
            "node_count": NODE_COUNT,
            "segment_bytes": 4096,
            "graph_vertices": GRAPH_VERTICES,
            "btree_keys": BTREE_KEYS,
            "btree_fanout": BTREE_FANOUT,
        },
        metrics=results,
        derived=derived)

    for workload in ("graph", "btree"):
        cut = results[workload]["cut"]
        heat = results[workload]["heat_only"]
        # The interleaved layout really does cross nodes ~every step.
        assert cut["hops_before"] > 0.5, (workload, cut)
        assert cut["edges_sampled"] > 0, (workload, cut)
        assert cut["cut_moves"] > 0, (workload, cut)
        # The acceptance gate: >= 30% fewer inter-node hops per
        # traversal than before rebalancing, and than the heat-only
        # objective left standing.
        assert cut["hops_after"] <= 0.7 * cut["hops_before"], \
            (workload, cut)
        assert cut["hops_after"] <= 0.7 * heat["hops_after"], \
            (workload, cut, heat)
