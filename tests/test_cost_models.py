"""Tests for the analytical cost model, the wall-clock profiler and cost tables."""


import numpy as np
import pytest

from repro.cost.analytical import AnalyticalCostModel, ModelParameters
from repro.cost.platform import PLATFORMS, arm_cortex_a57, intel_haswell, list_platforms
from repro.cost.profiler import WallClockProfiler
from repro.cost.tables import build_cost_tables
from repro.experiments.ablation import ScaledTransformCostModel
from repro.graph.scenario import ConvScenario
from repro.layouts.layout import CHW, CHW8c, HWC
from repro.layouts.transforms import LayoutTransform
from repro.models import MODEL_BUILDERS, build_model


@pytest.fixture(scope="module")
def k3_scenario():
    return ConvScenario(c=64, h=28, w=28, stride=1, k=3, m=64, padding=1)


class TestPlatform:
    def test_registry_contains_the_platform_zoo(self):
        # The paper's pair plus the post-paper zoo (AVX-512 server, GPU-sim).
        assert set(PLATFORMS) >= {
            "intel-haswell",
            "arm-cortex-a57",
            "avx512-server",
            "gpu-sim",
        }

    def test_peak_scales_with_lanes_up_to_width(self):
        assert intel_haswell.peak_gflops_per_core(8) == pytest.approx(
            8 * intel_haswell.peak_gflops_per_core(1)
        )
        # Requests beyond the native width are clamped.
        assert arm_cortex_a57.peak_gflops_per_core(8) == pytest.approx(
            arm_cortex_a57.peak_gflops_per_core(4)
        )

    def test_intel_peak_exceeds_arm_peak(self):
        assert intel_haswell.peak_gflops_per_core(8) > arm_cortex_a57.peak_gflops_per_core(4)

    def test_cache_structure(self):
        assert intel_haswell.last_level_cache_bytes() == 6144 * 1024
        assert arm_cortex_a57.last_level_cache_bytes() == 2048 * 1024
        assert intel_haswell.per_core_cache_bytes() == 256 * 1024
        # The A57's L2 is shared, so its private cache is only the L1.
        assert arm_cortex_a57.per_core_cache_bytes() == 32 * 1024


class TestAnalyticalModel:
    def test_costs_positive_for_all_applicable_primitives(
        self, library, intel_cost_model, k3_scenario
    ):
        for primitive in library.applicable(k3_scenario):
            cost = intel_cost_model.primitive_cost(primitive, k3_scenario)
            assert np.isfinite(cost) and cost > 0

    def test_arm_slower_than_intel(self, library, intel_cost_model, arm_cost_model, k3_scenario):
        for name in ("sum2d", "im2col_vf4", "winograd_2d_m2_r3_vf4"):
            primitive = library.get(name)
            assert arm_cost_model.primitive_cost(primitive, k3_scenario) > (
                intel_cost_model.primitive_cost(primitive, k3_scenario)
            )

    def test_multithreading_never_slows_down(self, library, intel_cost_model, k3_scenario):
        for name in ("sum2d", "im2col_vf8", "winograd_2d_m4_r3_vf8", "fft_1d_chw_vf8"):
            primitive = library.get(name)
            single = intel_cost_model.primitive_cost(primitive, k3_scenario, threads=1)
            multi = intel_cost_model.primitive_cost(primitive, k3_scenario, threads=4)
            assert multi <= single

    def test_invalid_thread_count(self, library, intel_cost_model, k3_scenario):
        with pytest.raises(ValueError):
            intel_cost_model.primitive_cost(library.get("sum2d"), k3_scenario, threads=0)

    def test_vector_width_matters_on_intel_not_on_arm(self, library, k3_scenario):
        """VF8 variants pay a penalty on NEON but win on AVX2 (Figure 4's VF split)."""
        intel_model = AnalyticalCostModel(intel_haswell)
        arm_model = AnalyticalCostModel(arm_cortex_a57)
        vf8 = library.get("im2col_vf8")
        vf4 = library.get("im2col_vf4")
        assert intel_model.primitive_cost(vf8, k3_scenario) < intel_model.primitive_cost(
            vf4, k3_scenario
        )
        assert arm_model.primitive_cost(vf4, k3_scenario) < arm_model.primitive_cost(
            vf8, k3_scenario
        )

    def test_sum2d_is_much_slower_than_gemm_based(self, library, intel_cost_model, k3_scenario):
        sum2d = intel_cost_model.primitive_cost(library.get("sum2d"), k3_scenario)
        im2 = intel_cost_model.primitive_cost(library.get("im2col_vf8"), k3_scenario)
        assert sum2d / im2 > 3.0

    def test_winograd_beats_im2_on_k3(self, library, intel_cost_model, k3_scenario):
        winograd = min(
            intel_cost_model.primitive_cost(library.get(name), k3_scenario)
            for name in ("winograd_2d_m2_r3_vf8", "winograd_2d_m4_r3_vf8")
        )
        im2 = intel_cost_model.primitive_cost(library.get("im2col_vf8"), k3_scenario)
        assert winograd < im2

    def test_one_d_winograd_preferred_on_arm_for_large_layers(self, library, arm_cost_model):
        """The small-cache platform favours the low-memory 1D form (Figure 4)."""
        scenario = ConvScenario(c=256, h=13, w=13, stride=1, k=3, m=384, padding=1)
        one_d = arm_cost_model.primitive_cost(library.get("winograd_1d_m4_r3_vf4"), scenario)
        two_d = arm_cost_model.primitive_cost(library.get("winograd_2d_m4_r3_vf4"), scenario)
        assert one_d < two_d

    def test_two_d_winograd_preferred_on_intel_for_same_layer(self, library, intel_cost_model):
        scenario = ConvScenario(c=256, h=13, w=13, stride=1, k=3, m=384, padding=1)
        one_d = intel_cost_model.primitive_cost(library.get("winograd_1d_m4_r3_vf8"), scenario)
        two_d = intel_cost_model.primitive_cost(library.get("winograd_2d_m4_r3_vf8"), scenario)
        assert two_d < one_d

    def test_cache_pressure_parameter_slows_large_workspaces(self, library, k3_scenario):
        gentle = AnalyticalCostModel(intel_haswell, ModelParameters(cache_pressure=0.0))
        harsh = AnalyticalCostModel(intel_haswell, ModelParameters(cache_pressure=2.0))
        primitive = library.get("im2col_vf8")
        assert harsh.primitive_cost(primitive, k3_scenario) > gentle.primitive_cost(
            primitive, k3_scenario
        )

    def test_transform_cost_scales_with_tensor_size(self, intel_cost_model):
        transform = LayoutTransform(source=CHW, target=HWC)
        small = intel_cost_model.transform_cost(transform, (16, 14, 14))
        large = intel_cost_model.transform_cost(transform, (256, 56, 56))
        assert large > small > 0

    def test_transform_cost_cheaper_on_intel(self, intel_cost_model, arm_cost_model):
        transform = LayoutTransform(source=CHW, target=CHW8c)
        shape = (128, 28, 28)
        assert intel_cost_model.transform_cost(transform, shape) < arm_cost_model.transform_cost(
            transform, shape
        )

    def test_transform_threads_help_a_little(self, intel_cost_model):
        transform = LayoutTransform(source=CHW, target=HWC)
        shape = (256, 28, 28)
        assert intel_cost_model.transform_cost(transform, shape, threads=4) < (
            intel_cost_model.transform_cost(transform, shape, threads=1)
        )


class TestWallClockProfiler:
    def test_measures_positive_times_and_caches(self, library):
        profiler = WallClockProfiler(repetitions=1, warmup=0)
        scenario = ConvScenario(c=2, h=8, w=8, stride=1, k=3, m=2, padding=1)
        primitive = library.get("im2col_vf1")
        first = profiler.primitive_cost(primitive, scenario)
        second = profiler.primitive_cost(primitive, scenario)
        assert first > 0
        assert first == second  # cached

    def test_transform_measurement(self):
        profiler = WallClockProfiler(repetitions=1, warmup=0)
        transform = LayoutTransform(source=CHW, target=HWC)
        assert profiler.transform_cost(transform, (4, 8, 8)) > 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            WallClockProfiler(repetitions=0)
        with pytest.raises(ValueError):
            WallClockProfiler(warmup=-1)


class TestCostTables:
    def test_tables_for_tiny_network(self, tiny_network, library, dt_graph, intel_cost_model):
        tables = build_cost_tables(tiny_network, library, dt_graph, intel_cost_model, threads=1)
        assert set(tables.layers()) == {layer.name for layer in tiny_network.conv_layers()}
        # Every conv layer has at least the sum2d fallback plus GEMM variants.
        for layer, costs in tables.node_costs.items():
            assert "sum2d" in costs
            assert len(costs) > 10
            assert all(np.isfinite(c) and c > 0 for c in costs.values())
        assert tables.table_entries() > 0

    def test_identity_conversion_is_free(self, tiny_network, library, dt_graph, intel_cost_model):
        tables = build_cost_tables(tiny_network, library, dt_graph, intel_cost_model)
        shape = next(iter(tables.dt_costs))
        assert tables.conversion_cost(shape, CHW, CHW) == 0.0

    def test_cheapest_primitive(self, tiny_network, library, dt_graph, intel_cost_model):
        tables = build_cost_tables(tiny_network, library, dt_graph, intel_cost_model)
        name, cost = tables.cheapest_primitive("conv1")
        assert cost == min(tables.node_costs["conv1"].values())
        assert tables.primitive_cost("conv1", name) == cost

    def test_multithreaded_tables_not_slower(
        self, tiny_network, library, dt_graph, intel_cost_model
    ):
        single = build_cost_tables(tiny_network, library, dt_graph, intel_cost_model, threads=1)
        multi = build_cost_tables(tiny_network, library, dt_graph, intel_cost_model, threads=4)
        for layer in single.layers():
            for name, cost in single.node_costs[layer].items():
                assert multi.node_costs[layer][name] <= cost + 1e-12

    def test_invalid_threads(self, tiny_network, library, dt_graph, intel_cost_model):
        with pytest.raises(ValueError):
            build_cost_tables(tiny_network, library, dt_graph, intel_cost_model, threads=0)


# -- the fused table build ------------------------------------------------------------

PAPER_PLATFORMS = ("intel-haswell", "arm-cortex-a57")


@pytest.fixture(scope="module")
def zoo():
    return {name: build_model(name) for name in MODEL_BUILDERS}


def reference_tables(network, library, dt_graph, model, threads=1, batch=1, dtype="fp32"):
    """Per-layer, per-primitive pricing through the single-primitive queries."""
    node = {}
    for layer, scenario in network.conv_scenarios().items():
        scenario = scenario.with_batch(batch).with_dtype(dtype)
        node[layer] = {
            primitive.name: (
                model.primitive_cost(primitive, scenario, threads=threads),
                float(scenario.itemsize) * primitive.workspace_elements(scenario.per_image),
                model.primitive_energy(primitive, scenario, threads=threads),
                model.primitive_accuracy_loss(primitive, scenario),
            )
            for primitive in library.applicable(scenario, platform=model.platform)
        }
    shapes = network.infer_shapes()
    dt_energy = {}
    for shape in {shapes[edge.producer] for edge in network.edges()}:
        paths = dt_graph.all_pairs_shortest_paths(
            shape,
            cost_fn=lambda transform, s: model.transform_cost(
                transform, s, threads=threads, batch=batch, dtype=dtype
            ),
        )
        dt_energy[shape] = {
            pair: float("inf")
            if path.chain is None
            else sum(
                (model.transform_energy(hop, shape, batch=batch) for hop in path.chain.transforms),
                0.0,
            )
            for pair, path in paths.items()
        }
    return node, dt_energy


def assert_tables_match_reference(tables, reference):
    node, dt_energy = reference
    built = {
        layer: {
            name: (
                tables.node_costs[layer][name],
                tables.node_workspace[layer][name],
                tables.node_energy[layer][name],
                tables.node_accuracy[layer][name],
            )
            for name in tables.node_costs[layer]
        }
        for layer in tables.node_costs
    }
    # Exact equality, key order included: the fused build must not move a
    # single ulp (stored tables stay valid without a provider version bump).
    assert list(built) == list(node)
    for layer in node:
        assert list(built[layer].items()) == list(node[layer].items()), layer
    assert tables.dt_energy == dt_energy


class TestFusedTableBuild:
    """``build_cost_tables`` prices each distinct scenario once through
    ``price_layer``; its tables must equal per-primitive pricing exactly."""

    @pytest.mark.parametrize("dtype", ["fp32", "fp16", "int8"])
    @pytest.mark.parametrize("platform_name", PAPER_PLATFORMS)
    @pytest.mark.parametrize("network_name", sorted(MODEL_BUILDERS))
    def test_zoo_tables_equal_per_primitive_pricing(
        self, zoo, library, dt_graph, network_name, platform_name, dtype
    ):
        model = AnalyticalCostModel(PLATFORMS[platform_name])
        network = zoo[network_name]
        tables = build_cost_tables(network, library, dt_graph, model, dtype=dtype)
        assert_tables_match_reference(
            tables, reference_tables(network, library, dt_graph, model, dtype=dtype)
        )

    @pytest.mark.parametrize("platform_name", list_platforms())
    def test_every_registered_platform_fp32(self, zoo, library, dt_graph, platform_name):
        # Covers the simt, avx512 recompile and wide-vector derating branches.
        model = AnalyticalCostModel(PLATFORMS[platform_name])
        for network_name in ("alexnet", "googlenet", "mobilenet_v2"):
            network = zoo[network_name]
            tables = build_cost_tables(network, library, dt_graph, model)
            assert_tables_match_reference(
                tables, reference_tables(network, library, dt_graph, model)
            )

    @pytest.mark.parametrize("platform_name", PAPER_PLATFORMS)
    def test_batched_multithreaded_tables(self, zoo, library, dt_graph, platform_name):
        model = AnalyticalCostModel(PLATFORMS[platform_name])
        network = zoo["resnet18"]
        tables = build_cost_tables(network, library, dt_graph, model, threads=4, batch=4)
        assert_tables_match_reference(
            tables, reference_tables(network, library, dt_graph, model, threads=4, batch=4)
        )

    def test_twin_layers_get_their_own_dicts(self, zoo, library, dt_graph, intel_cost_model):
        network = zoo["resnet50"]
        tables = build_cost_tables(network, library, dt_graph, intel_cost_model)
        by_scenario = {}
        for layer, scenario in tables.scenarios.items():
            by_scenario.setdefault(scenario, []).append(layer)
        twins = [layers for layers in by_scenario.values() if len(layers) > 1]
        assert twins
        for first, *others in twins:
            for other in others:
                for table in (
                    tables.node_costs,
                    tables.node_workspace,
                    tables.node_energy,
                    tables.node_accuracy,
                ):
                    assert table[other] == table[first]
                    assert table[other] is not table[first]

    def test_model_without_price_layer_still_builds(
        self, tiny_network, library, dt_graph, intel, intel_cost_model
    ):
        scaled = ScaledTransformCostModel(intel_cost_model, 2.0)
        assert not hasattr(scaled, "price_layer")
        tables = build_cost_tables(tiny_network, library, dt_graph, scaled, platform=intel)
        analytical = build_cost_tables(tiny_network, library, dt_graph, intel_cost_model)
        assert tables.node_costs == analytical.node_costs
        assert tables.node_workspace == analytical.node_workspace
        # Energy and accuracy are not modelled without ``price_layer``.
        for table in (tables.node_energy, tables.node_accuracy):
            assert table.keys() == analytical.node_costs.keys()
            assert all(value == 0.0 for costs in table.values() for value in costs.values())
        for shape, energies in tables.dt_energy.items():
            for pair, energy in energies.items():
                reachable = tables.dt_paths[shape][pair].reachable
                assert energy == (0.0 if reachable else float("inf"))
