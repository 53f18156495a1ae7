"""Tests for the bounded-frontier BFS graph traversal."""

import random

import pytest

from repro.core import PulseCluster
from repro.isa import analyze
from repro.mem import GlobalMemory
from repro.params import AcceleratorParams
from repro.structures import DisaggregatedGraph
from repro.structures.base import StructureError
from repro.structures.graph import MAX_DEGREE


@pytest.fixture
def memory():
    return GlobalMemory(node_count=2, node_capacity=8 << 20)


def build_binary_tree(graph, depth):
    """Complete binary tree; vertex value = its id."""
    count = 2 ** depth - 1
    for vertex in range(count):
        graph.add_vertex(vertex, vertex)
    for vertex in range(count):
        for child in (2 * vertex + 1, 2 * vertex + 2):
            if child < count:
                graph.add_edge(vertex, child)
    return count


class TestGraphConstruction:
    def test_vertices_and_edges(self, memory):
        graph = DisaggregatedGraph(memory)
        graph.add_vertex(1, 10)
        graph.add_vertex(2, 20)
        graph.add_edge(1, 2)
        assert len(graph._addresses) == 2
        assert graph.address_of(1) != 0

    def test_duplicate_vertex_rejected(self, memory):
        graph = DisaggregatedGraph(memory)
        graph.add_vertex(1, 0)
        with pytest.raises(StructureError, match="already exists"):
            graph.add_vertex(1, 0)

    def test_degree_cap_enforced(self, memory):
        graph = DisaggregatedGraph(memory)
        graph.add_vertex(0, 0)
        for i in range(1, MAX_DEGREE + 2):
            graph.add_vertex(i, 0)
        for i in range(1, MAX_DEGREE + 1):
            graph.add_edge(0, i)
        with pytest.raises(StructureError, match="cap"):
            graph.add_edge(0, MAX_DEGREE + 1)

    def test_missing_endpoint_rejected(self, memory):
        graph = DisaggregatedGraph(memory)
        graph.add_vertex(1, 0)
        with pytest.raises(StructureError):
            graph.add_edge(1, 99)


class TestBfsKernel:
    def test_offloadable(self, memory):
        graph = DisaggregatedGraph(memory)
        graph.add_vertex(0, 0)
        bfs = graph.bfs_iterator()
        analysis = analyze(bfs.program, AcceleratorParams())
        assert analysis.offloadable, analysis.reject_reason
        assert 0.5 < analysis.eta <= 1.0

    def test_full_tree_traversal(self, memory):
        graph = DisaggregatedGraph(memory)
        count = build_binary_tree(graph, depth=5)  # 31 vertices
        bfs = graph.bfs_iterator(queue_capacity=64, max_visits=256)
        result = bfs.run_functional(memory.read, 0)
        visited, total = result.value
        assert visited == count
        assert total == sum(range(count))
        assert result.iterations == count

    def test_visit_budget_respected(self, memory):
        graph = DisaggregatedGraph(memory)
        build_binary_tree(graph, depth=6)
        bfs = graph.bfs_iterator(queue_capacity=128, max_visits=10)
        visited, _total = bfs.run_functional(memory.read, 0).value
        assert visited == 10

    def test_queue_capacity_bounds_enqueues(self, memory):
        graph = DisaggregatedGraph(memory)
        build_binary_tree(graph, depth=6)  # 63 vertices
        bfs = graph.bfs_iterator(queue_capacity=8, max_visits=256)
        visited, total = bfs.run_functional(memory.read, 0).value
        # Root + at most 8 enqueued vertices.
        assert visited == 9
        assert (visited, total) == graph.bfs_reference(
            0, queue_capacity=8, max_visits=256)

    def test_matches_reference_on_random_dags(self, memory):
        rng = random.Random(5)
        graph = DisaggregatedGraph(memory)
        n = 60
        for vertex in range(n):
            graph.add_vertex(vertex, rng.randrange(-50, 50))
        for src in range(n):
            targets = rng.sample(range(src + 1, n),
                                 k=min(3, n - src - 1)) if src < n - 1 \
                else []
            for dst in targets:
                graph.add_edge(src, dst)
        bfs = graph.bfs_iterator(queue_capacity=48, max_visits=100)
        result = bfs.run_functional(memory.read, 0)
        assert result.value == graph.bfs_reference(
            0, queue_capacity=48, max_visits=100)

    def test_cycle_terminates_by_budget(self, memory):
        graph = DisaggregatedGraph(memory)
        graph.add_vertex(0, 1)
        graph.add_vertex(1, 2)
        graph.add_edge(0, 1)
        graph.add_edge(1, 0)
        bfs = graph.bfs_iterator(queue_capacity=16, max_visits=12)
        visited, _ = bfs.run_functional(memory.read, 0).value
        # Revisits happen on cycles (documented), but the budget holds.
        assert visited <= 12

    def test_through_the_cluster_across_nodes(self):
        cluster = PulseCluster(node_count=2)
        graph = DisaggregatedGraph(cluster.memory,
                                   placement=lambda o: o % 2)
        count = build_binary_tree(graph, depth=5)
        bfs = graph.bfs_iterator(queue_capacity=64, max_visits=256)
        result = cluster.run_traversal(bfs, 0)
        visited, total = result.value
        assert visited == count
        assert total == sum(range(count))
        # Frontier pointers alternate nodes: the scratch-pad queue
        # travelled with the request across the rack.
        assert result.hops > 0

    def test_unknown_root_rejected(self, memory):
        graph = DisaggregatedGraph(memory)
        graph.add_vertex(1, 0)
        with pytest.raises(StructureError, match="no vertex"):
            graph.bfs_iterator().init(42)
