"""Tests for the PBQP graph representation."""

import numpy as np
import pytest

from repro.pbqp.graph import PBQPGraph, PBQPNode


class TestNodes:
    def test_add_node_assigns_ids(self):
        graph = PBQPGraph()
        a = graph.add_node([1.0, 2.0], name="a")
        b = graph.add_node([3.0])
        assert a != b
        assert graph.num_nodes == 2
        assert graph.node(a).name == "a"
        assert graph.node(b).degree_of_freedom == 1

    def test_empty_cost_vector_rejected(self):
        graph = PBQPGraph()
        with pytest.raises(ValueError):
            graph.add_node([])

    def test_labels_must_match_costs(self):
        with pytest.raises(ValueError):
            PBQPNode(node_id=0, name="x", costs=np.array([1.0, 2.0]), labels=("a",))

    def test_label_of(self):
        graph = PBQPGraph()
        n = graph.add_node([1.0, 2.0], labels=["fast", "slow"])
        assert graph.node(n).label_of(0) == "fast"
        unlabeled = graph.add_node([1.0, 2.0])
        assert graph.node(unlabeled).label_of(1) == "1"

    def test_ids_count_up_from_zero(self):
        graph = PBQPGraph()
        assert [graph.add_node([1.0]) for _ in range(3)] == [0, 1, 2]
        assert graph.node_ids == [0, 1, 2]


class TestEdges:
    def test_edge_shape_validated(self):
        graph = PBQPGraph()
        a = graph.add_node([1.0, 2.0])
        b = graph.add_node([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            graph.add_edge(a, b, [[0.0, 1.0], [1.0, 0.0]])

    def test_edge_requires_existing_nodes(self):
        graph = PBQPGraph()
        a = graph.add_node([1.0])
        with pytest.raises(KeyError):
            graph.add_edge(a, 99, [[0.0]])

    def test_self_edge_rejected(self):
        graph = PBQPGraph()
        a = graph.add_node([1.0, 2.0])
        with pytest.raises(ValueError):
            graph.add_edge(a, a, [[0.0, 0.0], [0.0, 0.0]])

    def test_edge_matrix_orientation(self):
        graph = PBQPGraph()
        a = graph.add_node([0.0, 0.0])
        b = graph.add_node([0.0, 0.0, 0.0])
        matrix = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        graph.add_edge(a, b, matrix)
        np.testing.assert_allclose(graph.edge_matrix(a, b), matrix)
        np.testing.assert_allclose(graph.edge_matrix(b, a), np.transpose(matrix))

    def test_parallel_edges_accumulate(self):
        graph = PBQPGraph()
        a = graph.add_node([0.0, 0.0])
        b = graph.add_node([0.0, 0.0])
        graph.add_edge(a, b, [[1.0, 0.0], [0.0, 1.0]])
        graph.add_edge(b, a, [[2.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(graph.edge_matrix(a, b), [[3.0, 0.0], [0.0, 3.0]])
        assert graph.num_edges == 1

    def test_neighbors_and_degree(self):
        graph = PBQPGraph()
        a, b, c = (graph.add_node([0.0, 1.0]) for _ in range(3))
        graph.add_edge(a, b, np.zeros((2, 2)))
        graph.add_edge(a, c, np.zeros((2, 2)))
        assert graph.neighbors(a) == [b, c]
        assert graph.degree(a) == 2
        assert graph.degree(b) == 1


class TestEvaluation:
    def build_example(self):
        graph = PBQPGraph()
        a = graph.add_node([8.0, 6.0, 10.0], name="conv1")
        b = graph.add_node([17.0, 19.0, 14.0], name="conv2")
        graph.add_edge(a, b, [[0.0, 3.0, 5.0], [6.0, 0.0, 5.0], [1.0, 5.0, 0.0]])
        return graph, a, b

    def test_solution_cost(self):
        graph, a, b = self.build_example()
        assert graph.solution_cost({a: 1, b: 1}) == pytest.approx(6 + 19 + 0)
        assert graph.solution_cost({a: 0, b: 2}) == pytest.approx(8 + 14 + 5)

    def test_solution_cost_requires_full_assignment(self):
        graph, a, _ = self.build_example()
        with pytest.raises(ValueError):
            graph.solution_cost({a: 0})

    def test_copy_is_deep(self):
        graph, a, b = self.build_example()
        clone = graph.copy()
        clone.node(a).costs[0] = 99.0
        clone.edge(a, b).matrix[0, 0] = 99.0
        c = clone.add_node([0.0])
        clone.add_edge(a, c, [[0.0], [0.0], [0.0]])
        assert graph.node(a).costs[0] == 8.0
        assert graph.edge(a, b).matrix[0, 0] == 0.0
        assert graph.num_nodes == 2
        assert graph.num_edges == 1
        assert graph.degree(a) == 1
        assert clone.num_edges == 2
        assert clone.degree(a) == 2

    def test_infinite_costs_supported(self):
        graph = PBQPGraph()
        a = graph.add_node([float("inf"), 1.0])
        b = graph.add_node([1.0, 1.0])
        graph.add_edge(a, b, [[0.0, float("inf")], [0.0, 0.0]])
        assert graph.solution_cost({a: 0, b: 0}) == float("inf")
        assert graph.solution_cost({a: 1, b: 1}) == pytest.approx(2.0)


class TestBatchAndClasses:
    def build_batched(self):
        graph = PBQPGraph(batch=2)
        a = graph.add_node([[1.0, 2.0], [3.0, 4.0]], name="a")
        b = graph.add_node([[0.0, 5.0, 1.0], [2.0, 0.0, 0.0]], name="b")
        graph.add_edge(b, a, np.arange(12.0).reshape(2, 3, 2))
        return graph, a, b

    def test_shapes_validated_against_the_batch(self):
        graph, a, _ = self.build_batched()
        with pytest.raises(ValueError):
            graph.add_node([1.0, 2.0])
        with pytest.raises(ValueError):
            graph.add_node(np.zeros((3, 2)))
        c = graph.add_node(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            graph.add_edge(a, c, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            PBQPGraph(batch=0)

    def test_slices_are_ordinary_instances(self):
        graph, a, b = self.build_batched()
        for k in range(2):
            piece = graph.slice(k)
            assert piece.batch is None
            np.testing.assert_array_equal(piece.node(a).costs, graph.node(a).costs[k])
            np.testing.assert_array_equal(piece.edge_matrix(a, b), graph.edge_matrix(a, b)[k])
            assert piece.edge_matrix(a, b).shape == (2, 3)

    def test_batch_solution_cost_sums_each_slice(self):
        graph, a, b = self.build_batched()
        assignment = {a: np.array([1, 0]), b: np.array([2, 1])}
        totals = graph.batch_solution_cost(assignment)
        for k in range(2):
            plain = {a: int(assignment[a][k]), b: int(assignment[b][k])}
            assert totals[k] == graph.slice(k).solution_cost(plain)

    def test_class_groups(self):
        graph = PBQPGraph()
        node = graph.node(graph.add_node([5.0, 1.0, 4.0, 2.0], classes=[7, 3, 7, 3]))
        groups = node.class_groups
        assert groups.representatives.tolist() == [1, 0]
        assert groups.row_of.tolist() == [1, 0, 1, 0]
        singletons = graph.node(graph.add_node([1.0, 2.0], classes=[0, 1]))
        assert singletons.class_groups is None
        with pytest.raises(ValueError):
            graph.add_node([1.0, 2.0], classes=[0])
