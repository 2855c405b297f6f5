"""Tests for the PBQP selector, the baselines and the framework emulations."""

import dataclasses
import functools
import itertools
import json
import math
import operator
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.plan_verifier import _deduped_edge_total
from repro.api import Session
from repro.core.baselines import (
    family_greedy_plan,
    greedy_ignore_dt_plan,
    local_optimal_plan,
    sum2d_plan,
)
from repro.core.frameworks import armcl_like_plan, caffe_like_plan, mkldnn_like_plan
from repro.core.legalize import (
    IllegalPlanError,
    finalize_plan,
    fixed_layouts,
    follow_producer_layouts,
)
from repro.core.selector import PBQPEncoding, PBQPSelector
from repro.cost.analytical import AnalyticalCostModel
from repro.cost.platform import PLATFORMS
from repro.cost.serialize import plan_to_dict
from repro.graph.layer import LayerKind
from repro.graph.scenario import DTYPES
from repro.layouts.dt_graph import DTPath
from repro.layouts.layout import CHW
from repro.models import (
    MODEL_BUILDERS,
    build_alexnet,
    build_mobilenet_v1,
    build_model,
    build_resnet18,
)
from repro.multiobj.frontier import (
    SCALARIZATION_WEIGHTS,
    _FrontierVariants,
    build_frontier,
    workspace_levels,
)
from repro.pbqp.graph import PBQPGraph
from repro.primitives.base import PrimitiveFamily

from frontier_tables import scalarization_scales, scalarized_tables, workspace_gated_tables


@pytest.fixture(scope="module")
def intel_context(tiny_network_session, library, dt_graph, intel):
    return Session(library=library, dt_graph=dt_graph).context_for(tiny_network_session, intel)


@pytest.fixture(scope="module")
def arm_context(tiny_network_session, library, dt_graph, arm):
    return Session(library=library, dt_graph=dt_graph).context_for(tiny_network_session, arm)


class TestSelectionContext:
    def test_requires_platform_or_cost_model(self, tiny_network):
        with pytest.raises(ValueError, match="requires a platform"):
            Session().context_for(tiny_network, None)

    def test_defaults_built(self, tiny_network, intel):
        context = Session().context_for(tiny_network, intel)
        assert len(context.library) > 70
        assert context.tables.layers()
        assert context.platform_vector_width == 8

    def test_explicit_cost_model_wins(self, tiny_network, intel, arm):
        session = Session(cost_model=AnalyticalCostModel(intel))
        context = session.context_for(tiny_network, arm)
        expected = Session().context_for(tiny_network, intel)
        assert context.tables.node_costs == expected.tables.node_costs
        assert context.tables.dt_costs == expected.tables.dt_costs

    def test_single_thread_tables_cached(self, tiny_network, intel, library, dt_graph):
        session = Session(library=library, dt_graph=dt_graph)
        context = session.context_for(tiny_network, intel, threads=4)
        first = context.tables_single_thread
        assert first is context.tables_single_thread
        assert first is not context.tables

    def test_single_thread_tables_equal_a_one_thread_context(
        self, tiny_network, intel, library, dt_graph
    ):
        multi = Session(library=library, dt_graph=dt_graph).context_for(
            tiny_network, intel, threads=4
        )
        single = Session(library=library, dt_graph=dt_graph).context_for(tiny_network, intel)
        assert multi.tables_single_thread.threads == 1
        assert multi.tables_single_thread.node_costs == single.tables.node_costs
        assert multi.tables.node_costs != single.tables.node_costs

    def test_multithreaded_context_without_factory_fails_loudly(self, intel_context):
        context = dataclasses.replace(
            intel_context, threads=4, single_thread_tables_factory=None
        )
        with pytest.raises(ValueError, match="single_thread_tables_factory"):
            context.tables_single_thread


class TestPBQPEncoding:
    def test_one_node_per_layer_plus_one_aux_per_fanout_producer(self, intel_context):
        graph, id_to_layer = PBQPSelector().build_pbqp(intel_context)
        network = intel_context.network
        fanout_producers = [
            layer
            for layer in network.topological_order()
            if len(network.consumers_of(layer.name)) >= 2
        ]
        # tiny_network: pool1 fans out into the three inception-style branches.
        assert len(fanout_producers) == 1
        # One node per layer plus one conversion node per fan-out producer;
        # each fan-out producer trades its k direct edges for 1 + k aux edges.
        assert graph.num_nodes == len(network) + len(fanout_producers)
        assert graph.num_edges == len(network.edges()) + len(fanout_producers)
        assert set(id_to_layer.values()) == set(network.layer_names())

    def test_conv_nodes_have_primitive_alternatives(self, intel_context):
        graph, id_to_layer = PBQPSelector().build_pbqp(intel_context)
        layer_to_id = {v: k for k, v in id_to_layer.items()}
        conv1 = graph.node(layer_to_id["conv1"])
        assert conv1.degree_of_freedom == len(intel_context.tables.node_costs["conv1"])
        assert all(cost > 0 for cost in conv1.costs)

    def test_wildcard_nodes_are_zero_cost_layout_choices(self, intel_context):
        graph, id_to_layer = PBQPSelector().build_pbqp(intel_context)
        layer_to_id = {v: k for k, v in id_to_layer.items()}
        relu = graph.node(layer_to_id["relu1"])
        assert relu.degree_of_freedom == len(intel_context.dt_graph.layouts)
        assert all(cost == 0 for cost in relu.costs)
        data = graph.node(layer_to_id["data"])
        assert data.degree_of_freedom == 1
        assert data.labels == ("CHW",)

    def test_edge_matrices_are_dt_costs(self, intel_context):
        graph, id_to_layer = PBQPSelector().build_pbqp(intel_context)
        layer_to_id = {v: k for k, v in id_to_layer.items()}
        matrix = graph.edge_matrix(layer_to_id["data"], layer_to_id["conv1"])
        # Row 0 is the CHW input; any primitive consuming CHW has zero cost.
        assert matrix.min() == 0.0
        assert matrix.max() > 0.0


def _reference_build_pbqp(context):
    """The dict-based encoder the array gathers replaced: one ``dt_costs``
    lookup per matrix cell, fan-out chain sums folded left to right."""
    network, tables = context.network, context.tables

    def alternative_layouts(layer, output):
        if layer.is_convolution:
            primitives = [context.library.get(n) for n in sorted(tables.node_costs[layer.name])]
            return [p.output_layout if output else p.input_layout for p in primitives]
        if layer.kind is LayerKind.INPUT:
            return [CHW]
        return context.dt_graph.layouts

    graph = PBQPGraph()
    node_of_layer, id_to_layer = {}, {}
    for layer in network.topological_order():
        if layer.is_convolution:
            costs = tables.node_costs[layer.name]
            labels = sorted(costs)
            vector = [costs[name] for name in labels]
        elif layer.kind is LayerKind.INPUT:
            labels, vector = [CHW.name], [0.0]
        else:
            labels = [layout.name for layout in context.dt_graph.layouts]
            vector = [0.0] * len(labels)
        node_of_layer[layer.name] = graph.add_node(vector, name=layer.name, labels=labels)
        id_to_layer[node_of_layer[layer.name]] = layer.name

    for edge in network.edges():
        if len(network.consumers_of(edge.producer)) >= 2:
            continue
        dt = tables.dt_costs[tables.shapes[edge.producer]]
        in_layouts = alternative_layouts(network.layer(edge.consumer), False)
        matrix = [
            [dt[(src.name, dst.name)] for dst in in_layouts]
            for src in alternative_layouts(network.layer(edge.producer), True)
        ]
        graph.add_edge(node_of_layer[edge.producer], node_of_layer[edge.consumer], matrix)

    for producer in network.topological_order():
        consumers = network.consumers_of(producer.name)
        if len(consumers) < 2:
            continue
        dt = tables.dt_costs[tables.shapes[producer.name]]
        in_layouts = {name: alternative_layouts(network.layer(name), False) for name in consumers}
        targets = sorted({layout.name for layouts in in_layouts.values() for layout in layouts})
        subsets = [
            combo
            for size in range(1, min(len(consumers), len(targets)) + 1)
            for combo in itertools.combinations(targets, size)
        ]
        aux = graph.add_node(
            [0.0] * len(subsets),
            name=f"{producer.name}::conversions",
            labels=["+".join(combo) for combo in subsets],
        )
        chain_costs = [
            [
                functools.reduce(operator.add, (dt[(src.name, dst)] for dst in combo), 0.0)
                for combo in subsets
            ]
            for src in alternative_layouts(producer, True)
        ]
        graph.add_edge(node_of_layer[producer.name], aux, chain_costs)
        for name in consumers:
            compatibility = [
                [0.0 if layout.name in combo else math.inf for layout in in_layouts[name]]
                for combo in subsets
            ]
            graph.add_edge(aux, node_of_layer[name], compatibility)
    return graph, id_to_layer


def _assert_same_encoding(context):
    """``build_pbqp`` equals the reference encoder bit for bit; returns its graph."""
    graph, id_to_layer = PBQPSelector().build_pbqp(context)
    reference, reference_ids = _reference_build_pbqp(context)
    assert id_to_layer == reference_ids
    assert [(n.node_id, n.name, n.labels) for n in graph.nodes()] == [
        (n.node_id, n.name, n.labels) for n in reference.nodes()
    ]
    for node, expected in zip(graph.nodes(), reference.nodes()):
        assert node.costs.dtype == expected.costs.dtype
        assert node.costs.tobytes() == expected.costs.tobytes(), node.name
    assert [(e.u, e.v) for e in graph.edges()] == [(e.u, e.v) for e in reference.edges()]
    for edge, expected in zip(graph.edges(), reference.edges()):
        assert edge.matrix.shape == expected.matrix.shape
        assert edge.matrix.dtype == expected.matrix.dtype
        assert edge.matrix.tobytes() == expected.matrix.tobytes(), (edge.u, edge.v)
        assert not np.isnan(edge.matrix).any()
    return graph


def _zoo_context(model, platform, dtype="fp32"):
    return Session().context_for(build_model(model), PLATFORMS[platform], dtype=dtype)


PAPER_PLATFORMS = ("intel-haswell", "arm-cortex-a57")


class TestEncoderBitIdentity:
    """The array-gather encoder reproduces the per-cell dict encoder exactly."""

    def test_tiny_network(self, intel_context, arm_context):
        _assert_same_encoding(intel_context)
        _assert_same_encoding(arm_context)

    @pytest.mark.parametrize("platform", PAPER_PLATFORMS)
    @pytest.mark.parametrize("model", sorted(MODEL_BUILDERS))
    def test_zoo_every_dtype(self, model, platform):
        network = build_model(model)
        session = Session()
        for dtype in ("fp32", "fp16", "int8"):
            _assert_same_encoding(
                session.context_for(network, PLATFORMS[platform], dtype=dtype)
            )

    @pytest.mark.parametrize("platform", PAPER_PLATFORMS)
    @pytest.mark.parametrize("model", ["googlenet", "resnet18", "mobilenet_v2"])
    def test_workspace_gated_tables(self, model, platform):
        context = _zoo_context(model, platform)
        levels = workspace_levels(context)
        caps = sorted({levels[0], levels[len(levels) // 3], levels[2 * len(levels) // 3]})
        for cap in caps:
            gated = workspace_gated_tables(context, cap)
            assert gated is not None
            _assert_same_encoding(dataclasses.replace(context, tables=gated))

    @pytest.mark.parametrize("platform", PAPER_PLATFORMS)
    @pytest.mark.parametrize("model", ["googlenet", "resnet18", "mobilenet_v2"])
    def test_scalarized_tables(self, model, platform):
        context = _zoo_context(model, platform)
        scales = scalarization_scales(context.tables)
        for weights in SCALARIZATION_WEIGHTS:
            tables = scalarized_tables(context, weights, scales)
            _assert_same_encoding(dataclasses.replace(context, tables=tables))

    def test_infinite_conversion_cost(self):
        """An unreachable layout pair stays infinite in the same cells, never NaN."""
        context = _zoo_context("resnet18", "intel-haswell")
        tables = context.tables
        network = context.network
        producer = next(
            layer.name
            for layer in network.topological_order()
            if len(network.consumers_of(layer.name)) >= 2
        )
        shape = tables.shapes[producer]
        pair = ("CHW", "HWC")
        assert pair in tables.dt_costs[shape] and math.isfinite(tables.dt_costs[shape][pair])
        dt_costs = dict(tables.dt_costs)
        dt_costs[shape] = {**dt_costs[shape], pair: math.inf}
        broken = dataclasses.replace(context, tables=dataclasses.replace(tables, dt_costs=dt_costs))

        def infinite_cells(graph):
            return sum(int(np.isinf(edge.matrix).sum()) for edge in graph.edges())

        intact = PBQPSelector().build_pbqp(context)[0]
        assert infinite_cells(_assert_same_encoding(broken)) > infinite_cells(intact)


    def test_warm_encode_after_solve_and_frontier_is_exact(self):
        """A context's encoding survives its own solves and frontier unchanged."""
        context = _zoo_context("googlenet", "arm-cortex-a57")
        _assert_same_encoding(context)
        PBQPSelector().select(context)
        build_frontier(context)
        _assert_same_encoding(context)

    def test_returned_graphs_share_nothing_writable_with_the_encoding(self):
        context = _zoo_context("resnet18", "intel-haswell")
        encoding = context.encoding()
        selector = PBQPSelector()
        caps = workspace_levels(context)[:2]
        graphs = [
            selector.build_pbqp(context)[0],
            selector.build_pbqp(context, _FrontierVariants(caps, SCALARIZATION_WEIGHTS))[0],
        ]
        owned = [encoding.time, encoding.dt_time, *encoding.objectives()]
        for graph in graphs:
            for node in graph.nodes():
                assert node.costs.flags.writeable
                assert not any(np.shares_memory(node.costs, array) for array in owned)
                shared = [] if node.classes is None else [node.classes]
                shared.extend(node.class_groups or ())
                assert not any(array.flags.writeable for array in shared), node.name
            for edge in graph.edges():
                if edge.matrix.flags.writeable:
                    assert not any(np.shares_memory(edge.matrix, array) for array in owned)
                else:  # a batched compatibility matrix: one 0/inf block for every slice
                    assert edge.matrix.strides[0] == 0
            # Writing through everything writable reaches no later encoding.
            for node in graph.nodes():
                node.costs[...] = 7.0
            for edge in graph.edges():
                if edge.matrix.flags.writeable:
                    edge.matrix[...] = 7.0
        _assert_same_encoding(context)

    def test_replaced_context_never_sees_its_parents_encoding(self):
        context = _zoo_context("resnet18", "arm-cortex-a57")
        parent = context.encoding()
        gated = workspace_gated_tables(context, workspace_levels(context)[0])
        child = dataclasses.replace(context, tables=gated)
        assert child.encoding() is not parent
        assert child.encoding().time.size < parent.time.size
        _assert_same_encoding(child)
        _assert_same_encoding(context)
        assert context.encoding() is parent


#: The perfbench plan-cold keys: the memory test encodes every one of them.
PLAN_COLD_MODELS = (
    "alexnet", "vgg-d", "googlenet", "resnet18", "resnet50", "mobilenet_v1", "mobilenet_v2",
)
#: What the encodings of every plan-cold context may hold together: 5% of
#: the ~74 MB a planning daemon serving those keys keeps resident.
ENCODING_BUDGET_BYTES = 3.5e6


class TestContextEncoding:
    """The encoding a context keeps: its memory, its laziness, its threads."""

    def test_plan_cold_encodings_fit_their_memory_budget(self):
        session = Session()
        contexts = [
            session.context_for(model, platform, dtype=dtype)
            for model in PLAN_COLD_MODELS
            for platform in PAPER_PLATFORMS
            for dtype in ("fp32", "fp16", "int8")
        ]
        assert len(contexts) == 42
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            encodings = [context.encoding() for context in contexts]
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert all(context.encoding() is encoding for context, encoding in zip(contexts, encodings))
        assert held <= ENCODING_BUDGET_BYTES, f"{held / 1e6:.2f} MB"

    def test_a_plain_plan_builds_no_frontier_arrays(self, monkeypatch):
        calls = []
        original = PBQPEncoding.objectives
        monkeypatch.setattr(
            PBQPEncoding, "objectives", lambda self: calls.append(self) or original(self)
        )
        session = Session()
        session.plan("resnet18", "intel-haswell")
        assert calls == []
        assert session.context_for("resnet18", "intel-haswell").encoding()._objectives is None
        session.plan_frontier("alexnet", "intel-haswell", dtypes=("fp32",))
        assert len(calls) == 1

    def test_two_threads_select_on_one_fresh_context(self):
        context = _zoo_context("googlenet", "intel-haswell")
        alone = PBQPSelector().select(dataclasses.replace(context))
        barrier = threading.Barrier(2)
        plans = [None, None]

        def select(slot):
            barrier.wait()
            plans[slot] = PBQPSelector().select(context)

        threads = [threading.Thread(target=select, args=(slot,)) for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for plan in plans:
            assert plan.layer_decisions == alone.layer_decisions
            assert plan.edge_decisions == alone.edge_decisions
            assert plan.metadata["pbqp_cost"] == alone.metadata["pbqp_cost"]
        _assert_same_encoding(context)


class TestPBQPSelection:
    def test_plan_covers_every_layer_and_is_legal(self, intel_context):
        plan = PBQPSelector().select(intel_context)
        network = intel_context.network
        assert set(plan.layer_decisions) == set(network.layer_names())
        assert len(plan.edge_decisions) == len(network.edges())
        for edge in plan.edge_decisions:
            assert math.isfinite(edge.cost)
            # After legalization the chain really connects the two layouts.
            if edge.needs_conversion:
                assert edge.chain.source == edge.source_layout
                assert edge.chain.target == edge.target_layout

    def test_metadata_reports_optimality_and_size(self, intel_context):
        plan = PBQPSelector().select(intel_context)
        network = intel_context.network
        fanout_producers = sum(
            1
            for layer in network.topological_order()
            if len(network.consumers_of(layer.name)) >= 2
        )
        assert plan.metadata["pbqp_optimal"] is True
        assert plan.metadata["pbqp_nodes"] == len(network) + fanout_producers
        assert plan.metadata["solver_seconds"] >= 0

    def test_pbqp_beats_or_matches_every_baseline(self, intel_context):
        """Optimality: PBQP is never worse than any other strategy under the same costs."""
        pbqp = PBQPSelector().select(intel_context)
        others = [
            sum2d_plan(intel_context),
            local_optimal_plan(intel_context),
            greedy_ignore_dt_plan(intel_context),
        ]
        others.extend(
            family_greedy_plan(intel_context, family)
            for family in (
                PrimitiveFamily.DIRECT,
                PrimitiveFamily.IM2,
                PrimitiveFamily.KN2,
                PrimitiveFamily.WINOGRAD,
                PrimitiveFamily.FFT,
            )
        )
        for other in others:
            assert pbqp.total_cost <= other.total_cost + 1e-12, other.strategy

    def test_pbqp_cost_matches_plan_cost(self, intel_context):
        plan = PBQPSelector().select(intel_context)
        assert plan.total_cost == pytest.approx(plan.metadata["pbqp_cost"], rel=1e-9)

    def test_platform_specific_vector_factor(self, intel_context, arm_context):
        intel_plan = PBQPSelector().select(intel_context)
        arm_plan = PBQPSelector().select(arm_context)
        intel_names = " ".join(intel_plan.conv_selections().values())
        arm_names = " ".join(arm_plan.conv_selections().values())
        assert "vf8" in intel_names and "vf8" not in arm_names
        assert "vf4" in arm_names


class TestBaselines:
    def test_sum2d_plan_uses_sum2d_everywhere_with_no_conversions(self, intel_context):
        plan = sum2d_plan(intel_context)
        assert set(plan.conv_selections().values()) == {"sum2d"}
        assert plan.dt_cost == 0.0
        assert not plan.conversions()

    def test_local_optimal_uses_only_canonical_layouts(self, intel_context):
        plan = local_optimal_plan(intel_context)
        library = intel_context.library
        for primitive_name in plan.conv_selections().values():
            primitive = library.get(primitive_name)
            assert primitive.input_layout == CHW and primitive.output_layout == CHW
        assert plan.dt_cost == 0.0

    def test_local_optimal_not_slower_than_sum2d(self, intel_context):
        assert local_optimal_plan(intel_context).total_cost <= sum2d_plan(intel_context).total_cost

    def test_family_greedy_only_uses_family_or_sum2d(self, intel_context):
        plan = family_greedy_plan(intel_context, PrimitiveFamily.WINOGRAD)
        library = intel_context.library
        for name in plan.conv_selections().values():
            primitive = library.get(name)
            assert primitive.family in (PrimitiveFamily.WINOGRAD, PrimitiveFamily.SUM2D)

    def test_family_greedy_keeps_sum2d_where_family_unsupported(self, intel_context):
        plan = family_greedy_plan(intel_context, PrimitiveFamily.KN2)
        # conv1 is strided, which the kn2 family cannot implement.
        assert plan.conv_selections()["conv1"] == "sum2d"

    @pytest.mark.parametrize("platform", PAPER_PLATFORMS)
    @pytest.mark.parametrize("model", ["googlenet", "resnet18"])
    def test_family_greedy_matches_the_applicable_primitives_in_library_order(
        self, model, platform
    ):
        """The family's candidates are the applicable primitives in library
        order, also from tables whose keys are sorted as a stored table's
        are: ties break as ``library.applicable`` would order them."""
        context = _zoo_context(model, platform)
        tables, library = context.tables, context.library
        resorted = dataclasses.replace(
            context,
            tables=dataclasses.replace(
                tables,
                node_costs={
                    layer: dict(sorted(costs.items()))
                    for layer, costs in tables.node_costs.items()
                },
            ),
        )
        for family in PrimitiveFamily:
            expected = {}
            for layer in context.network.conv_layers():
                costs = tables.node_costs[layer.name]
                candidates = {
                    primitive.name: costs[primitive.name]
                    for primitive in library.applicable(
                        tables.scenarios[layer.name], family=family, platform=context.platform
                    )
                }
                best = min(candidates, key=candidates.get, default="sum2d")
                beats = best != "sum2d" and candidates[best] < costs["sum2d"]
                expected[layer.name] = best if beats else "sum2d"
            for candidate_context in (context, resorted):
                plan = family_greedy_plan(candidate_context, family)
                assert plan.conv_selections() == expected, family

    def test_greedy_ignore_dt_picks_per_layer_minimum(self, intel_context):
        plan = greedy_ignore_dt_plan(intel_context)
        names = intel_context.library.names()
        for layer, primitive in plan.conv_selections().items():
            costs = intel_context.tables.node_costs[layer]
            cheapest = [name for name in names if costs.get(name) == min(costs.values())]
            assert primitive == cheapest[0]

    @pytest.mark.parametrize("model", ["googlenet", "resnet18"])
    def test_per_layer_baselines_are_the_same_cold_and_store_warm(self, model, tmp_path):
        """A stored table's keys come back sorted; ties between equally fast
        primitives still break in library order, as a cold build inserts
        them, so a store-warm session plans the same documents."""
        strategies = (greedy_ignore_dt_plan, local_optimal_plan)
        documents = []
        for _ in range(2):
            context = Session(cache_dir=tmp_path).context_for(model, PLATFORMS["intel-haswell"])
            documents.append(
                [json.dumps(plan_to_dict(build(context)), sort_keys=True) for build in strategies]
            )
        cold, warm = documents
        warm_costs = next(iter(context.tables.node_costs.values()))
        assert list(warm_costs) == sorted(warm_costs)  # read back from the store
        assert warm == cold

    def test_greedy_conv_cost_lower_but_total_not_better_than_pbqp(self, intel_context):
        greedy = greedy_ignore_dt_plan(intel_context)
        pbqp = PBQPSelector().select(intel_context)
        assert greedy.conv_cost <= pbqp.conv_cost + 1e-12
        assert pbqp.total_cost <= greedy.total_cost + 1e-12


class TestLegalization:
    def test_missing_conv_choice_rejected(self, intel_context):
        with pytest.raises(ValueError):
            finalize_plan(intel_context, "broken", {}, fixed_layouts(intel_context, CHW))

    def test_missing_wildcard_layout_rejected(self, intel_context):
        conv_primitives = {layer.name: "sum2d" for layer in intel_context.network.conv_layers()}
        with pytest.raises(ValueError):
            finalize_plan(intel_context, "broken", conv_primitives, {})

    def test_follow_producer_assigns_all_wildcards(self, intel_context):
        conv_primitives = {layer.name: "im2row_vf8" for layer in intel_context.network.conv_layers()}
        layouts = follow_producer_layouts(intel_context, conv_primitives)
        wildcard_layers = [
            layer.name
            for layer in intel_context.network.topological_order()
            if not layer.is_convolution
        ]
        assert set(layouts) == set(wildcard_layers)
        # The relu after an HWC-producing conv operates in HWC.
        assert layouts["relu1"].name == "HWC"

    def test_plan_summary_and_repr(self, intel_context):
        plan = sum2d_plan(intel_context)
        text = plan.summary()
        assert "sum2d" in text and intel_context.network.name in text
        assert "NetworkPlan" in repr(plan)

    def test_speedup_over(self, intel_context):
        base = sum2d_plan(intel_context)
        pbqp = PBQPSelector().select(intel_context)
        assert pbqp.speedup_over(base) > 1.0
        assert base.speedup_over(base) == pytest.approx(1.0)


#: Small zoo builds whose contexts the legalization differential test draws from.
SMALL_ZOO = (
    build_alexnet,
    functools.partial(build_resnet18, input_size=64, base_width=8),
    functools.partial(build_mobilenet_v1, input_size=64, width_multiplier=0.125),
)


@pytest.fixture(scope="module")
def small_zoo_contexts():
    session = Session()
    return [
        session.context_for(build(), PLATFORMS["intel-haswell"], dtype=dtype)
        for build in SMALL_ZOO
        for dtype in DTYPES
    ]


def _draw_legalization_case(data, contexts):
    """A small zoo context, random per-layer choices, and some layout pairs
    made unreachable at every shape: up to two the choices convert across
    and up to one at random."""
    context = data.draw(st.sampled_from(contexts))
    network, library = context.network, context.library
    layouts = {layout.name: layout for layout in context.dt_graph.layouts}
    layouts.setdefault(CHW.name, CHW)
    names = sorted(layouts)
    conv_primitives, wildcard_layouts = {}, {}
    for layer in network.topological_order():
        if layer.is_convolution:
            options = sorted(context.tables.node_costs[layer.name])
            conv_primitives[layer.name] = data.draw(st.sampled_from(options))
        else:
            wildcard_layouts[layer.name] = layouts[data.draw(st.sampled_from(names))]

    def layout(name, end):
        if name in wildcard_layouts:
            return wildcard_layouts[name].name
        return getattr(library.get(conv_primitives[name]), end).name

    used = {
        (layout(edge.producer, "output_layout"), layout(edge.consumer, "input_layout"))
        for edge in network.edges()
    }
    converted = sorted(pair for pair in used if pair[0] != pair[1])
    pairs = [(src, dst) for src in names for dst in names if src != dst]
    broken = data.draw(st.sets(st.sampled_from(pairs), max_size=1))
    if converted:
        broken |= data.draw(st.sets(st.sampled_from(converted), max_size=2))
    if broken:
        tables = context.tables
        dt_paths = {
            shape: {
                pair: DTPath(path.source, path.target, math.inf, None)
                if pair in broken
                else path
                for pair, path in paths.items()
            }
            for shape, paths in tables.dt_paths.items()
        }
        context = dataclasses.replace(
            context, tables=dataclasses.replace(tables, dt_paths=dt_paths)
        )
    return context, conv_primitives, wildcard_layouts


class TestLegalizationDifferential:
    """finalize_plan against a direct reading of the network and tables."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_choices(self, small_zoo_contexts, data):
        context, conv_primitives, wildcard_layouts = _draw_legalization_case(
            data, small_zoo_contexts
        )
        network, tables, library = context.network, context.tables, context.library
        inputs, outputs = {}, {}
        for layer in network.layers():
            if layer.is_convolution:
                primitive = library.get(conv_primitives[layer.name])
                inputs[layer.name], outputs[layer.name] = (
                    primitive.input_layout,
                    primitive.output_layout,
                )
            else:
                inputs[layer.name] = outputs[layer.name] = wildcard_layouts[layer.name]
        edges = network.edges()
        illegal = any(
            not tables.dt_paths[tables.shapes[edge.producer]][
                outputs[edge.producer].name, inputs[edge.consumer].name
            ].reachable
            for edge in edges
        )
        if illegal:
            with pytest.raises(IllegalPlanError):
                finalize_plan(context, "random", conv_primitives, wildcard_layouts)
            return
        plan = finalize_plan(context, "random", conv_primitives, wildcard_layouts)

        assert list(plan.layer_decisions) == [layer.name for layer in network.topological_order()]
        assert plan.conv_selections() == conv_primitives
        assert {
            name: decision.output_layout
            for name, decision in plan.layer_decisions.items()
            if decision.primitive is None
        } == wildcard_layouts
        assert [
            (edge.producer, edge.consumer, edge.source_layout, edge.target_layout)
            for edge in plan.edge_decisions
        ] == [
            (edge.producer, edge.consumer, outputs[edge.producer], inputs[edge.consumer])
            for edge in edges
        ]

        document = plan_to_dict(plan)
        node_time = sum(
            tables.node_costs[name][primitive] for name, primitive in conv_primitives.items()
        )
        node_energy = sum(
            tables.node_energy.get(name, {}).get(primitive, 0.0)
            for name, primitive in conv_primitives.items()
        )
        assert math.isclose(
            plan.total_cost,
            node_time + _deduped_edge_total(document["edges"], "cost"),
            rel_tol=1e-12,
        )
        assert math.isclose(
            plan.energy_proxy_j,
            node_energy + _deduped_edge_total(document["edges"], "energy_j"),
            rel_tol=1e-12,
        )


class TestFrameworkEmulations:
    def test_caffe_plan_uses_im2col_in_canonical_layout(self, intel_context):
        plan = caffe_like_plan(intel_context)
        assert plan.strategy == "caffe"
        for name in plan.conv_selections().values():
            assert name.startswith("im2col")
        assert plan.dt_cost == 0.0

    def test_caffe_slower_than_local_optimal(self, intel_context):
        assert caffe_like_plan(intel_context).total_cost > local_optimal_plan(
            intel_context
        ).total_cost

    def test_mkldnn_never_beats_pbqp(self, intel_context):
        pbqp = PBQPSelector().select(intel_context)
        mkldnn = mkldnn_like_plan(intel_context)
        assert pbqp.total_cost <= mkldnn.total_cost

    def test_armcl_plan_on_arm_context(self, arm_context):
        plan = armcl_like_plan(arm_context)
        assert plan.strategy == "armcl"
        assert plan.total_cost > 0

    def test_framework_mt_scaling_is_poorer_than_pbqp(
        self, tiny_network_session, library, dt_graph, intel
    ):
        session = Session(library=library, dt_graph=dt_graph)
        single = session.context_for(tiny_network_session, intel)
        multi = session.context_for(tiny_network_session, intel, threads=4)
        pbqp_scaling = (
            PBQPSelector().select(single).total_cost / PBQPSelector().select(multi).total_cost
        )
        mkldnn_scaling = (
            mkldnn_like_plan(single).total_cost / mkldnn_like_plan(multi).total_cost
        )
        assert pbqp_scaling > mkldnn_scaling
