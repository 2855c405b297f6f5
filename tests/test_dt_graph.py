"""Tests for the data-layout transformation (DT) graph."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layouts.dt_graph import DTGraph, element_traffic_cost
from repro.layouts.layout import CHW, CHW8c, HWC, HWC8c, WHC, STANDARD_LAYOUTS
from repro.layouts.transforms import LayoutTransform, TransformChain, default_transform_library


def scalar_shortest_paths(graph, shape, cost_fn=element_traffic_cost):
    """Test oracle: the per-shape scalar Floyd–Warshall the array pass replaced.

    Returns ``{(source, target): (cost, hop names or None)}``.
    """
    names = graph.layout_names
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    dist = [[math.inf] * n for _ in range(n)]
    nxt = [[None] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0.0
        nxt[i][i] = i
    edges = {(t.source.name, t.target.name): t for t in graph.transforms}
    for (src, dst), transform in edges.items():
        i, j = index[src], index[dst]
        cost = float(cost_fn(transform, shape))
        if cost < 0:
            raise ValueError(f"negative transform cost for {transform.name}")
        if cost < dist[i][j]:
            dist[i][j] = cost
            nxt[i][j] = j
    for k in range(n):
        for i in range(n):
            if not math.isfinite(dist[i][k]):
                continue
            for j in range(n):
                through = dist[i][k] + dist[k][j]
                if through < dist[i][j]:
                    dist[i][j] = through
                    nxt[i][j] = nxt[i][k]
    paths = {}
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            if not math.isfinite(dist[i][j]):
                paths[(a, b)] = (math.inf, None)
                continue
            hops, current = [], i
            while current != j:
                following = nxt[current][j]
                hops.append(edges[(names[current], names[following])].name)
                current = following
            paths[(a, b)] = (dist[i][j], hops)
    return paths


def random_dt_case(seed):
    """A seeded random DT graph with a shape-dependent cost table.

    Sparse random edges leave unreachable pairs; small integer costs (zero
    included) make equal-cost ties common, and tenths make the result depend
    on the order of each floating-point sum.
    """
    rng = random.Random(seed)
    layouts = list(STANDARD_LAYOUTS.values())[: rng.randint(2, len(STANDARD_LAYOUTS))]
    density = rng.uniform(0.15, 0.6)
    transforms = [
        LayoutTransform(a, b)
        for a in layouts
        for b in layouts
        if a != b and rng.random() < density
    ]
    shapes = [(rng.randint(1, 64), rng.randint(1, 16), rng.randint(1, 16)) for _ in range(3)]
    choices = (0.0, 1.0, 2.0, 3.0, 0.1, 0.2, 0.3, 0.7)
    table = {
        (transform.name, shape): rng.choice(choices)
        for transform in transforms
        for shape in shapes
    }
    return DTGraph(layouts, transforms), shapes, lambda t, s: table[(t.name, s)]


@pytest.fixture(scope="module")
def standard_graph():
    return DTGraph(STANDARD_LAYOUTS.values(), default_transform_library())


class TestStructure:
    def test_nodes_and_edges(self, standard_graph):
        assert len(standard_graph.layouts) == len(STANDARD_LAYOUTS)
        assert len(standard_graph.transforms) == len(default_transform_library())

    def test_direct_transform_lookup(self, standard_graph):
        assert standard_graph.direct_transform(CHW, HWC) is not None
        assert standard_graph.direct_transform(CHW, WHC) is None

    def test_successors(self, standard_graph):
        names = {layout.name for layout in standard_graph.successors(CHW)}
        assert "HWC" in names and "CHWc8" in names
        assert "WHC" not in names

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError):
            DTGraph(
                [CHW, HWC],
                [LayoutTransform(CHW, HWC), LayoutTransform(CHW, HWC, efficiency=0.5)],
            )

    def test_layouts_from_transforms_added_automatically(self):
        graph = DTGraph([], [LayoutTransform(CHW, HWC)])
        assert {layout.name for layout in graph.layouts} == {"CHW", "HWC"}


class TestReachability:
    def test_transitive_closure_includes_self(self, standard_graph):
        closure = standard_graph.transitive_closure()
        for name in standard_graph.layout_names:
            assert (name, name) in closure

    def test_all_standard_layouts_mutually_reachable(self, standard_graph):
        closure = standard_graph.transitive_closure()
        names = standard_graph.layout_names
        assert all((a, b) in closure for a in names for b in names)

    def test_unreachable_pair_detected(self):
        # One-way edge only: HWC cannot reach CHW.
        graph = DTGraph([CHW, HWC], [LayoutTransform(CHW, HWC)])
        assert graph.is_reachable(CHW, HWC)
        assert not graph.is_reachable(HWC, CHW)


class TestShortestPaths:
    def test_identity_path_is_free(self, standard_graph):
        paths = standard_graph.all_pairs_shortest_paths((8, 8, 8))
        path = paths[("CHW", "CHW")]
        assert path.cost == 0
        assert path.hops == 0
        assert path.reachable

    def test_direct_pair_uses_single_hop(self, standard_graph):
        path = standard_graph.shortest_path(CHW, HWC, (16, 10, 10))
        assert path.hops == 1
        assert path.chain.transforms[0].source == CHW

    def test_multi_hop_chain_for_indirect_pair(self, standard_graph):
        path = standard_graph.shortest_path(CHW8c, HWC8c, (64, 14, 14))
        assert path.hops >= 3
        assert path.chain.source == CHW8c
        assert path.chain.target == HWC8c

    def test_whc_needs_two_hops_from_chw(self, standard_graph):
        path = standard_graph.shortest_path(CHW, WHC, (8, 9, 10))
        assert path.hops == 2

    def test_unreachable_pair_has_infinite_cost(self):
        graph = DTGraph([CHW, HWC], [LayoutTransform(CHW, HWC)])
        paths = graph.all_pairs_shortest_paths((4, 4, 4))
        assert math.isinf(paths[("HWC", "CHW")].cost)
        assert paths[("HWC", "CHW")].chain is None

    def test_shortest_path_cost_matches_chain_traffic(self, standard_graph):
        shape = (32, 12, 12)
        paths = standard_graph.all_pairs_shortest_paths(shape)
        for path in paths.values():
            if path.reachable and path.hops:
                assert path.cost == pytest.approx(path.chain.element_traffic(*shape))

    def test_negative_cost_rejected(self, standard_graph):
        with pytest.raises(ValueError):
            standard_graph.all_pairs_shortest_paths((4, 4, 4), cost_fn=lambda t, s: -1.0)

    def test_custom_cost_function(self, standard_graph):
        unit = standard_graph.all_pairs_shortest_paths((4, 4, 4), cost_fn=lambda t, s: 1.0)
        # With unit edge costs, cost equals hop count.
        for path in unit.values():
            if path.reachable:
                assert path.cost == pytest.approx(path.hops)

    def test_shortest_never_worse_than_direct(self, standard_graph):
        """The all-pairs answer is never worse than any direct edge."""
        shape = (16, 8, 8)
        paths = standard_graph.all_pairs_shortest_paths(shape)
        for transform in standard_graph.transforms:
            key = (transform.source.name, transform.target.name)
            assert paths[key].cost <= element_traffic_cost(transform, shape) + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.sampled_from(sorted(STANDARD_LAYOUTS)),
        b=st.sampled_from(sorted(STANDARD_LAYOUTS)),
        c=st.sampled_from(sorted(STANDARD_LAYOUTS)),
    )
    def test_triangle_inequality(self, standard_graph, a, b, c):
        """Shortest-path costs satisfy the triangle inequality."""
        shape = (16, 10, 10)
        paths = standard_graph.all_pairs_shortest_paths(shape)
        direct = paths[(a, c)].cost
        via = paths[(a, b)].cost + paths[(b, c)].cost
        assert direct <= via + 1e-6


class TestArrayFloydWarshall:
    """The one-pass array Floyd–Warshall against the scalar per-shape oracle."""

    @staticmethod
    def as_oracle_form(paths):
        return {
            pair: (path.cost, None if path.chain is None else [t.name for t in path.chain.transforms])
            for pair, path in paths.items()
        }

    @pytest.mark.parametrize("seed", range(60))
    def test_random_graphs_match_scalar_oracle(self, seed):
        graph, shapes, cost_fn = random_dt_case(seed)
        by_shape = graph.shortest_paths_by_shape(shapes, cost_fn)
        assert list(by_shape) == shapes
        for shape in shapes:
            expected = scalar_shortest_paths(graph, shape, cost_fn)
            got = self.as_oracle_form(by_shape[shape])
            # Key order, float bits and chosen chains all match.
            assert list(got) == list(expected)
            assert got == expected, (seed, shape)
        # Reachability is the finite entries of the same computation.
        assert graph.transitive_closure() == {
            pair for pair, (cost, _) in expected.items() if math.isfinite(cost)
        }

    def test_random_graphs_exercise_ties_and_unreachable_pairs(self):
        unreachable = zero_hops = 0
        for seed in range(60):
            graph, shapes, cost_fn = random_dt_case(seed)
            paths = graph.shortest_paths_by_shape(shapes, cost_fn)
            for per_shape in paths.values():
                unreachable += sum(not path.reachable for path in per_shape.values())
                zero_hops += sum(
                    path.reachable and path.hops > 0 and path.cost == 0.0
                    for path in per_shape.values()
                )
        assert unreachable > 0 and zero_hops > 0

    def test_zoo_edge_shapes_match_scalar_oracle(self, standard_graph):
        shapes = [(3, 224, 224), (64, 56, 56), (256, 14, 14), (1000, 1, 1)]
        by_shape = standard_graph.shortest_paths_by_shape(shapes)
        for shape in shapes:
            expected = scalar_shortest_paths(standard_graph, shape)
            assert self.as_oracle_form(by_shape[shape]) == expected

    def test_cost_fn_called_shape_by_shape_in_edge_order(self, standard_graph):
        calls = []

        def cost_fn(transform, shape):
            calls.append((shape, transform.name))
            return element_traffic_cost(transform, shape)

        shapes = [(8, 4, 4), (16, 2, 2)]
        standard_graph.shortest_paths_by_shape(shapes, cost_fn)
        assert calls == [
            (shape, transform.name) for shape in shapes for transform in standard_graph.transforms
        ]

    def test_shapes_with_one_successor_matrix_share_chains(self, standard_graph):
        # Uniform edge costs give every shape the same successor matrix.
        paths = standard_graph.shortest_paths_by_shape(
            [(1, 1, 1), (2, 2, 2)], cost_fn=lambda t, s: 1.0
        )
        first, second = paths.values()
        assert all(first[pair].chain is second[pair].chain for pair in first)
        assert all(isinstance(path.chain, TransformChain) for path in first.values())
