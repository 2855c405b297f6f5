"""Tests for the analytical cost model, the wall-clock profiler and cost tables."""


import numpy as np
import pytest

from repro.cost.analytical import (
    DTYPE_ACCURACY_LOSS,
    WINOGRAD_INT8_PENALTY,
    AnalyticalCostModel,
    ModelParameters,
)
from repro.cost.platform import PLATFORMS, arm_cortex_a57, intel_haswell, list_platforms
from repro.cost.profiler import WallClockProfiler
from repro.cost.tables import build_cost_tables
from repro.experiments.ablation import ScaledTransformCostModel
from repro.graph.scenario import ConvScenario
from repro.layouts.layout import CHW, CHW8c, HWC
from repro.layouts.transforms import LayoutTransform
from repro.models import MODEL_BUILDERS, build_model
from repro.primitives.base import PrimitiveFamily
from tests.conftest import layer_rows


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
            cost = layer_rows(intel_cost_model, [primitive], k3_scenario)[0][0]
            assert np.isfinite(cost) and cost > 0

    def test_arm_slower_than_intel(self, library, intel_cost_model, arm_cost_model, k3_scenario):
        for name in ("sum2d", "im2col_vf4", "winograd_2d_m2_r3_vf4"):
            primitive = library.get(name)
            assert layer_rows(arm_cost_model, [primitive], k3_scenario)[0][0] > (
                layer_rows(intel_cost_model, [primitive], k3_scenario)[0][0]
            )

    def test_multithreading_never_slows_down(self, library, intel_cost_model, k3_scenario):
        for name in ("sum2d", "im2col_vf8", "winograd_2d_m4_r3_vf8", "fft_1d_chw_vf8"):
            primitive = library.get(name)
            single = layer_rows(intel_cost_model, [primitive], k3_scenario, 1)[0][0]
            multi = layer_rows(intel_cost_model, [primitive], k3_scenario, 4)[0][0]
            assert multi <= single

    def test_invalid_thread_count(self, library, intel_cost_model, k3_scenario):
        with pytest.raises(ValueError):
            layer_rows(intel_cost_model, [library.get("sum2d")], k3_scenario, 0)[0][0]

    def test_vector_width_matters_on_intel_not_on_arm(self, library, k3_scenario):
        """VF8 variants pay a penalty on NEON but win on AVX2 (Figure 4's VF split)."""
        intel_model = AnalyticalCostModel(intel_haswell)
        arm_model = AnalyticalCostModel(arm_cortex_a57)
        vf8 = library.get("im2col_vf8")
        vf4 = library.get("im2col_vf4")
        intel_times = [row[0] for row in layer_rows(intel_model, [vf8, vf4], k3_scenario)]
        arm_times = [row[0] for row in layer_rows(arm_model, [vf8, vf4], k3_scenario)]
        assert intel_times[0] < intel_times[1]
        assert arm_times[1] < arm_times[0]

    def test_sum2d_is_much_slower_than_gemm_based(self, library, intel_cost_model, k3_scenario):
        sum2d = layer_rows(intel_cost_model, [library.get("sum2d")], k3_scenario)[0][0]
        im2 = layer_rows(intel_cost_model, [library.get("im2col_vf8")], k3_scenario)[0][0]
        assert sum2d / im2 > 3.0

    def test_winograd_beats_im2_on_k3(self, library, intel_cost_model, k3_scenario):
        winograd = min(
            layer_rows(intel_cost_model, [library.get(name)], k3_scenario)[0][0]
            for name in ("winograd_2d_m2_r3_vf8", "winograd_2d_m4_r3_vf8")
        )
        im2 = layer_rows(intel_cost_model, [library.get("im2col_vf8")], k3_scenario)[0][0]
        assert winograd < im2

    def test_one_d_winograd_preferred_on_arm_for_large_layers(self, library, arm_cost_model):
        """The small-cache platform favours the low-memory 1D form (Figure 4)."""
        scenario = ConvScenario(c=256, h=13, w=13, stride=1, k=3, m=384, padding=1)
        one_d = layer_rows(arm_cost_model, [library.get("winograd_1d_m4_r3_vf4")], scenario)[0][0]
        two_d = layer_rows(arm_cost_model, [library.get("winograd_2d_m4_r3_vf4")], scenario)[0][0]
        assert one_d < two_d

    def test_two_d_winograd_preferred_on_intel_for_same_layer(self, library, intel_cost_model):
        scenario = ConvScenario(c=256, h=13, w=13, stride=1, k=3, m=384, padding=1)
        one_d = layer_rows(intel_cost_model, [library.get("winograd_1d_m4_r3_vf8")], scenario)[0][0]
        two_d = layer_rows(intel_cost_model, [library.get("winograd_2d_m4_r3_vf8")], scenario)[0][0]
        assert two_d < one_d

    def test_cache_pressure_parameter_slows_large_workspaces(self, library, k3_scenario):
        gentle = AnalyticalCostModel(intel_haswell, ModelParameters(cache_pressure=0.0))
        harsh = AnalyticalCostModel(intel_haswell, ModelParameters(cache_pressure=2.0))
        primitive = library.get("im2col_vf8")
        assert (
            layer_rows(harsh, [primitive], k3_scenario)[0][0]
            > layer_rows(gentle, [primitive], k3_scenario)[0][0]
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
        first = layer_rows(profiler, [primitive], scenario)[0][0]
        second = layer_rows(profiler, [primitive], scenario)[0][0]
        assert first > 0
        assert first == second  # cached

    def test_price_layers_rows_and_cache(self, library, monkeypatch):
        profiler = WallClockProfiler(repetitions=1, warmup=0)
        scenario = ConvScenario(c=2, h=8, w=8, stride=1, k=3, m=2, padding=1)
        primitives = [library.get("im2col_vf1"), library.get("sum2d")]
        executed = []
        for primitive in primitives:
            original = type(primitive).execute

            def counting(self, *args, _original=original, **kwargs):
                executed.append(self.name)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(type(primitive), "execute", counting)
        rows = layer_rows(profiler, primitives, scenario)
        assert executed == ["im2col_vf1", "sum2d"]
        assert len(rows) == 2
        for primitive, (time_s, workspace, energy, accuracy) in zip(primitives, rows):
            assert time_s > 0
            assert workspace == scenario.itemsize * primitive.workspace_elements(scenario)
            assert energy == 0.0 and accuracy == 0.0
        assert layer_rows(profiler, primitives, scenario) == rows
        assert executed == ["im2col_vf1", "sum2d"]  # the repeat was served from the cache
        transform = LayoutTransform(source=CHW, target=HWC)
        assert profiler.transform_energy(transform, (4, 8, 8)) == 0.0

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


def scalar_utilization(model, primitive, traits, scenario):
    """Test oracle: the per-primitive utilization the array formula replaced."""
    params = model.parameters
    locality = traits.locality
    family = primitive.family
    if family is PrimitiveFamily.DIRECT or family is PrimitiveFamily.SUM2D:
        if primitive.input_layout.order[-1] == "C":
            locality += 0.15 if scenario.c <= 128 else -0.10
        if primitive.input_layout.is_blocked:
            block = primitive.input_layout.channel_block or 1
            locality += 0.10 if scenario.c >= 4 * block else -0.10
        locality = min(max(locality, 0.05), 0.95)
    gemm_util = params.gemm_efficiency
    group_c = scenario.c // scenario.groups
    if family is PrimitiveFamily.KN2:
        gemm_util *= group_c / (group_c + 48.0)
    if family is PrimitiveFamily.IM2:
        inner = group_c * scenario.k * scenario.k
        gemm_util *= inner / (inner + 12.0)
    loop_util = params.loop_efficiency_base + params.loop_efficiency_locality * locality
    return traits.gemm_fraction * gemm_util + (1.0 - traits.gemm_fraction) * loop_util


def scalar_price_layer(model, primitives, scenario, threads=1):
    """Test oracle: the per-primitive scalar loop the array formula replaced.

    Kept operation for operation, so the array formula can be compared with
    it bit for bit.
    """
    platform = model.platform
    params = model.parameters
    batch = scenario.batch
    per_image = scenario.per_image
    itemsize = float(scenario.itemsize)
    tensor_bytes = itemsize * (
        scenario.input_elements() + scenario.output_elements() + scenario.kernel_elements()
    )
    tensor_bytes_image = itemsize * (
        per_image.input_elements() + per_image.output_elements() + per_image.kernel_elements()
    )
    conversion_bytes = model._conversion_bytes(scenario)
    simt = platform.has_feature("simt")
    wide_recompile = platform.has_feature("avx512") and platform.vector_width > 8
    precision_rate = model._precision_rate(scenario.dtype)
    llc = platform.last_level_cache_bytes()
    per_core = platform.per_core_cache_bytes()
    threads = min(threads, platform.cores)
    scalar_peak = platform.peak_gflops_per_core(1) * 1e9
    base_loss = DTYPE_ACCURACY_LOSS[scenario.dtype]
    is_int8 = scenario.dtype == "int8"
    priced = []
    for primitive in primitives:
        traits = primitive.traits()
        ops = primitive.arithmetic_ops(scenario)
        workspace_bytes = itemsize * primitive.workspace_elements(per_image)
        plain_loops = primitive.family in (PrimitiveFamily.DIRECT, PrimitiveFamily.SUM2D)
        if simt:
            if plain_loops:
                lanes = 1.0 + (platform.vector_width - 1.0) * params.direct_vector_efficiency
            else:
                lanes = platform.vector_width * params.simt_lane_efficiency
        else:
            lanes = min(primitive.vector_factor, platform.vector_width)
            if plain_loops:
                lanes = 1.0 + (lanes - 1.0) * params.direct_vector_efficiency
            elif wide_recompile and primitive.vector_factor >= 8:
                lanes = platform.vector_width * params.wide_recompile_efficiency
        frequency = platform.frequency_ghz
        if lanes > 8.0 and platform.wide_vector_derating != 1.0:
            frequency *= platform.wide_vector_derating
        peak = frequency * platform.fma_per_cycle * 2.0 * lanes * 1e9
        if not simt and primitive.vector_factor > platform.vector_width:
            peak *= params.vector_emulation_penalty
        if not plain_loops:
            peak *= precision_rate
        utilization = scalar_utilization(model, primitive, traits, scenario)
        work_scale = ops / (ops + params.small_work_flops)
        utilization *= 0.25 + 0.75 * work_scale
        pressure = params.cache_pressure * (workspace_bytes + 0.5 * tensor_bytes_image) / llc
        if simt:
            pressure *= params.simt_pressure_relief
        utilization /= 1.0 + pressure
        inner_bytes = itemsize * primitive.inner_working_set_elements(per_image)
        if inner_bytes > per_core and not simt:
            utilization /= 1.0 + params.inner_cache_pressure * (inner_bytes / per_core - 1.0)
        compute_seconds = ops / (peak * max(utilization, 1e-3))
        traffic_bytes = tensor_bytes + params.workspace_traffic_weight * workspace_bytes * batch
        traffic_bytes += conversion_bytes
        footprint = tensor_bytes_image + workspace_bytes
        if footprint <= per_core:
            bandwidth = platform.cache_bandwidth_gbps
            per_byte_pj = params.energy_per_cache_byte_pj
        elif footprint <= llc:
            bandwidth = 0.6 * platform.cache_bandwidth_gbps
            per_byte_pj = params.energy_per_llc_byte_pj
        else:
            bandwidth = platform.dram_bandwidth_gbps
            per_byte_pj = params.energy_per_dram_byte_pj
        memory_seconds = traffic_bytes / (bandwidth * 1e9)
        if threads > 1:
            speedup = 1.0 + (threads - 1) * traits.parallel_efficiency
            compute_seconds /= speedup
            memory_seconds /= platform.mt_bandwidth_scaling
        call_count = 1 if plain_loops else scenario.groups
        overhead_seconds = traits.per_call_overhead_ops * call_count / scalar_peak
        overhead_seconds += platform.launch_overhead_s * call_count
        loss = base_loss
        if is_int8 and primitive.family is PrimitiveFamily.WINOGRAD:
            loss *= WINOGRAD_INT8_PENALTY
        priced.append(
            (
                max(compute_seconds, memory_seconds) + overhead_seconds,
                workspace_bytes,
                1e-12 * (ops * params.energy_per_flop_pj + traffic_bytes * per_byte_pj),
                loss,
            )
        )
    return priced


def bits(rows):
    """Rows of floats as their exact bit patterns (``-0.0`` differs from ``0.0``)."""
    return [tuple(np.float64(value).tobytes() for value in row) for row in rows]


def zoo_scenarios():
    """Every distinct convolution scenario of the model zoo, in build order."""
    scenarios = {}
    for name in MODEL_BUILDERS:
        for scenario in build_model(name).conv_scenarios().values():
            scenarios.setdefault(scenario, None)
    return list(scenarios)


class TestArrayPricingMatchesScalarOracle:
    """``price_layers`` prices primitives as arrays; every float must equal
    the per-primitive scalar loop it replaced."""

    @pytest.mark.parametrize("platform_name", list_platforms())
    def test_every_machine_dtype_batch_thread_and_zoo_scenario(self, library, platform_name):
        model = AnalyticalCostModel(PLATFORMS[platform_name])
        cases = 0
        for scenario in zoo_scenarios():
            for dtype in ("fp32", "fp16", "int8"):
                for batch in (1, 4):
                    priced = scenario.with_batch(batch).with_dtype(dtype)
                    primitives = library.applicable(priced, platform=model.platform)
                    for threads in (1, 4):
                        expected = scalar_price_layer(model, primitives, priced, threads)
                        got = layer_rows(model, primitives, priced, threads)
                        assert bits(got) == bits(expected), (priced.describe(), threads)
                        cases += 1
        assert cases == 12 * len(zoo_scenarios())

    def test_empty_layer_prices_nothing(self, library, intel_cost_model, k3_scenario):
        assert intel_cost_model.price_layers([]) == []
        assert layer_rows(intel_cost_model, [], k3_scenario) == []
        assert intel_cost_model.price_layers([([], k3_scenario), ([], k3_scenario)]) == [[], []]
        sum2d = [library.get("sum2d")]
        assert intel_cost_model.price_layers(
            [([], k3_scenario), (sum2d, k3_scenario), ([], k3_scenario)]
        ) == [[], layer_rows(intel_cost_model, sum2d, k3_scenario), []]

    @pytest.mark.parametrize("platform_name", list_platforms())
    def test_no_floating_point_error_in_masked_lanes(self, library, platform_name):
        # Both sides of every branch are evaluated; lanes a mask discards
        # must not divide by zero or overflow either.
        model = AnalyticalCostModel(PLATFORMS[platform_name])
        with np.errstate(all="raise"):
            for scenario in zoo_scenarios():
                layer_rows(model, library.applicable(scenario, platform=model.platform), scenario)


def reference_tables(network, library, dt_graph, model, threads=1, batch=1, dtype="fp32"):
    """Per-layer pricing with one one-primitive ``price_layers`` call per
    primitive, and each chain's energy summed from a list of its hops."""

    def row(primitive, scenario):
        time_s, _, energy, _ = layer_rows(model, [primitive], scenario, threads)[0]
        return (
            time_s,
            float(scenario.itemsize) * primitive.workspace_elements(scenario.per_image),
            energy,
            # Threads do not change the modelled accuracy loss.
            layer_rows(model, [primitive], scenario)[0][3],
        )

    node = {}
    for layer, scenario in network.conv_scenarios().items():
        scenario = scenario.with_batch(batch).with_dtype(dtype)
        node[layer] = {
            primitive.name: row(primitive, scenario)
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
                [model.transform_energy(hop, shape, batch=batch) for hop in path.chain.transforms],
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
    # single ulp (stored tables stay valid without a cost-model version bump).
    assert list(built) == list(node)
    for layer in node:
        assert list(built[layer].items()) == list(node[layer].items()), layer
    assert tables.dt_energy == dt_energy


class TestFusedTableBuild:
    """``build_cost_tables`` prices every distinct scenario in one
    ``price_layers`` call; its tables must equal per-primitive pricing
    exactly."""

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

    def test_scaled_transform_model_prices_through_its_inner_model(
        self, tiny_network, library, dt_graph, intel, intel_cost_model
    ):
        scaled = ScaledTransformCostModel(intel_cost_model, 2.0)
        tables = build_cost_tables(tiny_network, library, dt_graph, scaled, platform=intel)
        inner = build_cost_tables(tiny_network, library, dt_graph, intel_cost_model)
        assert tables.node_costs == inner.node_costs
        assert tables.node_workspace == inner.node_workspace
        assert tables.node_energy == inner.node_energy
        assert tables.node_accuracy == inner.node_accuracy
        assert tables.dt_energy == inner.dt_energy
        assert tables.dt_costs.keys() == inner.dt_costs.keys()
        for shape, costs in tables.dt_costs.items():
            assert costs == {pair: 2.0 * cost for pair, cost in inner.dt_costs[shape].items()}


# -- one pricing call per table build ------------------------------------------------


def distinct_layers(network, library, model, batch=1, dtype="fp32"):
    """A network's distinct scenarios with their applicable primitives, in
    first-seen layer order: what ``build_cost_tables`` prices in one call."""
    layers = {}
    for scenario in network.conv_scenarios().values():
        scenario = scenario.with_batch(batch).with_dtype(dtype)
        if scenario not in layers:
            layers[scenario] = library.applicable(scenario, platform=model.platform)
    return [(primitives, scenario) for scenario, primitives in layers.items()]


class TestMultiLayerPricing:
    """One ``price_layers`` call over many layers gives exactly the tuples of
    one call per layer: running the formula once over the concatenated rows
    must not move an ulp."""

    @pytest.mark.parametrize("platform_name", list_platforms())
    @pytest.mark.parametrize("network_name", sorted(MODEL_BUILDERS))
    def test_network_priced_at_once_equals_layer_by_layer(
        self, zoo, library, network_name, platform_name
    ):
        model = AnalyticalCostModel(PLATFORMS[platform_name])
        for dtype in ("fp32", "fp16", "int8"):
            for batch in (1, 4):
                layers = distinct_layers(zoo[network_name], library, model, batch, dtype)
                for threads in (1, 4):
                    together = model.price_layers(layers, threads)
                    alone = [
                        layer_rows(model, primitives, scenario, threads)
                        for primitives, scenario in layers
                    ]
                    assert together == alone, (dtype, batch, threads)

    def test_profiler_measures_scenarios_first_seen_then_library_order(
        self, zoo, library, dt_graph, monkeypatch
    ):
        # ``_measure`` and ``transform_cost`` are replaced, so nothing runs
        # and no wall time is read: only the order of the requests counts.
        profiler = WallClockProfiler()
        calls = []

        def measure(primitive, scenario, threads):
            calls.append((primitive.name, scenario, threads))
            return 1e-3

        monkeypatch.setattr(profiler, "_measure", measure)
        monkeypatch.setattr(profiler, "transform_cost", lambda *args, **kwargs: 1e-6)
        network = zoo["resnet18"]
        tables = build_cost_tables(network, library, dt_graph, profiler, threads=2, batch=4)
        first_seen = list(dict.fromkeys(tables.scenarios.values()))
        assert len(first_seen) < len(tables.scenarios)  # twins are measured once
        assert calls == [
            (primitive.name, scenario, 2)
            for scenario in first_seen
            for primitive in library.applicable(scenario)
        ]

    def test_unsupported_layer_fails_before_anything_is_priced(
        self, zoo, library, dt_graph, intel
    ):
        winograd_only = library.subset(
            [primitive.name for primitive in library.by_family(PrimitiveFamily.WINOGRAD)]
        )
        model = AnalyticalCostModel(intel)
        priced = []
        model.price_layers = lambda layers, threads=1: priced.append(layers)
        # VGG-C's first 1x1 convolution is its seventh layer; the 3x3 layers
        # before it are supported.
        with pytest.raises(ValueError, match=r"supports layer 'conv3_3' \["):
            build_cost_tables(zoo["vgg-c"], winograd_only, dt_graph, model)
        assert priced == []
