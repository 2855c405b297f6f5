"""Tests for the reference operators, the weight store and the executor."""

import time

import numpy as np
import pytest

from repro.api import Session
from repro.core.baselines import local_optimal_plan, sum2d_plan
from repro.core.selector import PBQPSelector
from repro.graph.layer import PoolLayer
from repro.models import MODEL_BUILDERS
from repro.runtime import NetworkExecutor, WeightStore
from repro.runtime import reference_ops as ops
from repro.runtime.codegen import generate_schedule, render_schedule


class TestReferenceOps:
    def test_relu(self):
        x = np.array([[[-1.0, 2.0], [0.0, -3.0]]])
        np.testing.assert_allclose(ops.relu(x), [[[0.0, 2.0], [0.0, 0.0]]])

    def test_max_pool_basic(self):
        x = np.arange(16.0).reshape(1, 4, 4)
        pooled = ops.max_pool(x, kernel=2, stride=2, padding=0, output_shape=(1, 2, 2))
        np.testing.assert_allclose(pooled, [[[5.0, 7.0], [13.0, 15.0]]])

    def test_max_pool_overlapping_windows(self):
        x = np.arange(25.0).reshape(1, 5, 5)
        pooled = ops.max_pool(x, kernel=3, stride=2, padding=0, output_shape=(1, 2, 2))
        np.testing.assert_allclose(pooled, [[[12.0, 14.0], [22.0, 24.0]]])

    def test_max_pool_equals_max_over_gathered_windows_on_zoo_shapes(self):
        """The running maximum is bit-identical to reducing gathered windows."""
        cases = set()
        for build in MODEL_BUILDERS.values():
            network = build()
            shapes = network.infer_shapes()
            for layer in network.layers():
                if isinstance(layer, PoolLayer):
                    (producer,) = network.inputs_of(layer.name)
                    geometry = (layer.kernel, layer.stride, layer.padding)
                    cases.add((shapes[producer], *geometry, shapes[layer.name]))
        assert len(cases) >= 10
        rng = np.random.default_rng(0)
        for in_shape, kernel, stride, padding, out_shape in sorted(cases):
            for lead in ((), (2,)):
                x = rng.standard_normal(lead + tuple(in_shape)).astype(np.float32)
                gathered = ops._pool_windows(
                    x, kernel, stride, padding, out_shape[1], out_shape[2], pad_value=-np.inf
                ).max(axis=-1)
                pooled = ops.max_pool(x, kernel, stride, padding, out_shape)
                assert pooled.dtype == gathered.dtype
                assert np.array_equal(pooled, gathered), (lead, in_shape, kernel, stride, padding)

    def test_average_pool(self):
        x = np.ones((2, 4, 4))
        pooled = ops.average_pool(x, kernel=2, stride=2, padding=0, output_shape=(2, 2, 2))
        np.testing.assert_allclose(pooled, np.ones((2, 2, 2)))

    def test_lrn_preserves_shape_and_reduces_magnitude(self):
        x = np.full((8, 3, 3), 2.0)
        normalized = ops.local_response_norm(x, local_size=5, alpha=1.0, beta=0.75)
        assert normalized.shape == x.shape
        assert np.all(np.abs(normalized) < np.abs(x))

    def test_lrn_near_identity_for_tiny_alpha(self):
        x = np.random.default_rng(0).standard_normal((4, 5, 5))
        normalized = ops.local_response_norm(x, alpha=1e-12)
        np.testing.assert_allclose(normalized, x, rtol=1e-6)

    def test_fully_connected(self):
        x = np.arange(4.0).reshape(1, 2, 2)
        weights = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
        bias = np.array([0.5, -1.0])
        out = ops.fully_connected(x, weights, bias)
        assert out.shape == (2, 1, 1)
        np.testing.assert_allclose(out.reshape(-1), [0.5, 5.0])

    def test_fully_connected_shape_mismatch(self):
        with pytest.raises(ValueError):
            ops.fully_connected(np.ones((2, 2, 2)), np.ones((3, 9)), np.zeros(3))

    def test_softmax_normalizes(self):
        x = np.array([1.0, 2.0, 3.0]).reshape(3, 1, 1)
        result = ops.softmax(x)
        assert result.sum() == pytest.approx(1.0)
        assert result.argmax() == 2

    def test_softmax_stable_for_large_inputs(self):
        x = np.array([1000.0, 1001.0]).reshape(2, 1, 1)
        result = ops.softmax(x)
        assert np.isfinite(result).all()

    def test_eltwise_add_sums_inputs(self):
        a = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
        b = np.ones((2, 2, 2), dtype=np.float32)
        out = ops.eltwise_add([a, b])
        np.testing.assert_allclose(out, a + b)
        out3 = ops.eltwise_add([a, b, b])
        np.testing.assert_allclose(out3, a + 2.0)
        # The inputs themselves are left untouched.
        np.testing.assert_allclose(b, np.ones((2, 2, 2)))

    def test_eltwise_add_rejects_bad_inputs(self):
        a = np.zeros((2, 2, 2))
        with pytest.raises(ValueError):
            ops.eltwise_add([a])
        with pytest.raises(ValueError):
            ops.eltwise_add([a, np.zeros((2, 2, 3))])

    def test_concat_and_flatten(self):
        a, b = np.ones((2, 3, 3)), np.zeros((4, 3, 3))
        merged = ops.concat_channels([a, b])
        assert merged.shape == (6, 3, 3)
        assert ops.flatten(merged).shape == (54, 1, 1)


class TestWeightStore:
    def test_deterministic_across_instances(self, tiny_network):
        first = WeightStore(tiny_network, seed=3)
        second = WeightStore(tiny_network, seed=3)
        np.testing.assert_array_equal(first.conv_weights("conv1"), second.conv_weights("conv1"))
        w1, b1 = first.fc_weights("fc")
        w2, b2 = second.fc_weights("fc")
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(b1, b2)

    def test_different_seeds_differ(self, tiny_network):
        a = WeightStore(tiny_network, seed=1).conv_weights("conv1")
        b = WeightStore(tiny_network, seed=2).conv_weights("conv1")
        assert not np.array_equal(a, b)

    def test_shapes_match_scenarios(self, tiny_network):
        store = WeightStore(tiny_network)
        scenarios = tiny_network.conv_scenarios()
        for name, scenario in scenarios.items():
            assert store.conv_weights(name).shape == scenario.kernel_shape

    def test_type_errors(self, tiny_network):
        store = WeightStore(tiny_network)
        with pytest.raises(TypeError):
            store.conv_weights("relu1")
        with pytest.raises(TypeError):
            store.fc_weights("conv1")


class TestExecutor:
    @pytest.fixture(scope="class")
    def context(self, tiny_network_session, library, dt_graph, intel):
        return Session(library=library, dt_graph=dt_graph).context_for(tiny_network_session, intel)

    def test_pbqp_plan_computes_same_function_as_sum2d(self, context):
        network = context.network
        weights = WeightStore(network, seed=11)
        x = np.random.default_rng(4).standard_normal((3, 32, 32)).astype(np.float32)
        reference = NetworkExecutor(network, sum2d_plan(context), context.library, weights).run(x)
        pbqp = NetworkExecutor(
            network, PBQPSelector().select(context), context.library, weights
        ).run(x)
        np.testing.assert_allclose(pbqp, reference, rtol=1e-3, atol=1e-4)

    def test_local_optimal_plan_matches_too(self, context):
        network = context.network
        weights = WeightStore(network, seed=11)
        x = np.random.default_rng(5).standard_normal((3, 32, 32)).astype(np.float32)
        reference = NetworkExecutor(network, sum2d_plan(context), context.library, weights).run(x)
        local = NetworkExecutor(
            network, local_optimal_plan(context), context.library, weights
        ).run(x)
        np.testing.assert_allclose(local, reference, rtol=1e-3, atol=1e-4)

    def test_output_is_probability_distribution(self, context):
        network = context.network
        executor = NetworkExecutor(network, sum2d_plan(context), context.library)
        x = np.random.default_rng(6).standard_normal((3, 32, 32)).astype(np.float32)
        out = executor.run(x)
        assert out.shape == (10, 1, 1)
        assert out.sum() == pytest.approx(1.0, abs=1e-5)
        assert (out >= 0).all()

    def test_trace_reports_layers_and_conversions(self, context):
        network = context.network
        plan = PBQPSelector().select(context)
        executor = NetworkExecutor(network, plan, context.library)
        x = np.random.default_rng(7).standard_normal((3, 32, 32)).astype(np.float32)
        _, trace = executor.run_traced(x, keep_outputs=True)
        assert trace.layer_order == [layer.name for layer in network.topological_order()]
        assert trace.conversions_executed == len(plan.conversions()) >= 0
        assert set(trace.outputs) == set(network.layer_names())
        assert trace.wall_seconds > 0

    def test_weight_synthesis_is_not_timed_as_layer_compute(self, context):
        """Every weight is synthesized before the first layer timer starts:
        a store that sleeps on each first synthesis charges no layer."""
        sleep_s = 0.05

        class SlowWeightStore(WeightStore):
            synthesized = 0

            def _first(self, layer_name):
                if layer_name not in self._cache:
                    SlowWeightStore.synthesized += 1
                    time.sleep(sleep_s)

            def conv_weights(self, layer_name):
                self._first(layer_name)
                return super().conv_weights(layer_name)

            def fc_weights(self, layer_name):
                self._first(layer_name)
                return super().fc_weights(layer_name)

        network = context.network
        weights = SlowWeightStore(network, seed=11)
        executor = NetworkExecutor(network, PBQPSelector().select(context), context.library, weights)
        x = np.random.default_rng(8).standard_normal((3, 32, 32)).astype(np.float32)
        _, trace = executor.run_traced(x)
        weighted = [
            layer.name for layer in network.layers() if layer.name in weights._cache
        ]
        assert SlowWeightStore.synthesized == len(weighted) >= 2
        assert max(trace.layer_seconds.values()) < sleep_s
        assert trace.wall_seconds < sleep_s * len(weighted)

    def test_wrong_input_shape_rejected(self, context):
        executor = NetworkExecutor(context.network, sum2d_plan(context), context.library)
        with pytest.raises(ValueError):
            executor.run(np.zeros((3, 16, 16), dtype=np.float32))

    def test_plan_network_mismatch_rejected(self, context, library, intel):
        other = __import__("repro.models", fromlist=["build_model"]).build_model("alexnet")
        plan = sum2d_plan(context)
        with pytest.raises(ValueError):
            NetworkExecutor(other, plan, library)

    def test_store_of_another_network_object_rejected(self, context):
        from tests.conftest import build_tiny_network

        twin = build_tiny_network()  # same structure, another object
        with pytest.raises(ValueError, match="another network object"):
            NetworkExecutor(
                context.network, sum2d_plan(context), context.library, WeightStore(twin)
            )

    def test_seed_must_agree_with_the_store(self, context):
        network, plan = context.network, sum2d_plan(context)
        weights = WeightStore(network, seed=2)
        with pytest.raises(ValueError, match="disagrees"):
            NetworkExecutor(network, plan, context.library, weights, seed=3)
        assert NetworkExecutor(network, plan, context.library, weights, seed=2).weights is weights
        assert NetworkExecutor(network, plan, context.library, weights).weights is weights
        assert NetworkExecutor(network, plan, context.library).weights.seed == 0
        assert NetworkExecutor(network, plan, context.library, seed=4).weights.seed == 4


class TestExecutorDAG:
    """DAG-shaped executor behaviour: multi-output networks and fan-out edges."""

    @pytest.fixture(scope="class")
    def context(self, tiny_network_session, library, dt_graph, intel):
        return Session(library=library, dt_graph=dt_graph).context_for(tiny_network_session, intel)

    def _context(self, network, library, dt_graph, intel):
        return Session(library=library, dt_graph=dt_graph).context_for(network, intel)

    def test_multi_output_network_returns_every_output(self, library, dt_graph, intel):
        from repro.core.legalize import finalize_plan, fixed_layouts
        from repro.graph.layer import ConvLayer, InputLayer, PoolLayer, ReLULayer
        from repro.graph.network import Network
        from repro.layouts.layout import CHW

        net = Network("two-heads")
        net.add_layer(InputLayer("data", shape=(3, 12, 12)))
        net.add_layer(ConvLayer("conv", out_channels=4, kernel=3, padding=1), ["data"])
        net.add_layer(ReLULayer("head_a"), ["conv"])
        net.add_layer(PoolLayer("head_b", kernel=2, stride=2), ["conv"])
        net.validate()
        context = self._context(net, library, dt_graph, intel)
        plan = finalize_plan(
            context, "probe", {"conv": "sum2d"}, fixed_layouts(context, CHW)
        )
        executor = NetworkExecutor(net, plan, library)
        x = np.random.default_rng(3).standard_normal((3, 12, 12)).astype(np.float32)
        result, trace = executor.run_traced(x, keep_outputs=True)
        assert isinstance(result, dict)
        assert set(result) == {"head_a", "head_b"}
        np.testing.assert_allclose(result["head_a"], trace.outputs["head_a"])
        np.testing.assert_allclose(result["head_b"], trace.outputs["head_b"])
        assert result["head_a"].shape == (4, 12, 12)
        assert result["head_b"].shape == (4, 6, 6)

    def test_single_output_network_keeps_array_fast_path(self, context):
        executor = NetworkExecutor(context.network, sum2d_plan(context), context.library)
        x = np.random.default_rng(9).standard_normal((3, 32, 32)).astype(np.float32)
        out = executor.run(x)
        assert isinstance(out, np.ndarray)

    def test_fanout_conversion_chain_runs_once(self, library, dt_graph, intel):
        from repro.core.legalize import finalize_plan
        from repro.graph.layer import EltwiseAddLayer, InputLayer, ReLULayer
        from repro.graph.network import Network
        from repro.layouts.layout import CHW, CHW8c

        net = Network("fanout")
        net.add_layer(InputLayer("data", shape=(4, 8, 8)))
        net.add_layer(ReLULayer("relu_a"), ["data"])
        net.add_layer(ReLULayer("relu_b"), ["data"])
        net.add_layer(EltwiseAddLayer("add"), ["relu_a", "relu_b"])
        net.validate()
        context = self._context(net, library, dt_graph, intel)
        # Force both fan-out edges of "data" to need the same CHW -> CHWc8
        # conversion chain: the executor must apply it once and reuse it.
        plan = finalize_plan(
            context,
            "probe",
            {},
            {"data": CHW, "relu_a": CHW8c, "relu_b": CHW8c, "add": CHW8c},
        )
        assert len(plan.conversions()) == 2
        executor = NetworkExecutor(net, plan, library)
        x = np.random.default_rng(5).standard_normal((4, 8, 8)).astype(np.float32)
        out, trace = executor.run_traced(x)
        assert trace.conversions_executed == 1
        assert len(trace.conversion_seconds) == 1
        assert trace.total_conversion_seconds > 0
        np.testing.assert_allclose(out, 2.0 * np.maximum(x, 0.0), rtol=1e-6, atol=1e-6)

    def test_inconsistent_multi_input_plan_rejected(self, library, dt_graph, intel):
        """A hand-assembled plan whose join edges disagree on layout is refused."""
        from repro.core.legalize import finalize_plan
        from repro.graph.layer import EltwiseAddLayer, InputLayer, ReLULayer
        from repro.graph.network import Network
        from repro.layouts.layout import CHW, CHW8c

        net = Network("bad-join")
        net.add_layer(InputLayer("data", shape=(4, 8, 8)))
        net.add_layer(ReLULayer("relu_a"), ["data"])
        net.add_layer(ReLULayer("relu_b"), ["data"])
        net.add_layer(EltwiseAddLayer("add"), ["relu_a", "relu_b"])
        net.validate()
        context = self._context(net, library, dt_graph, intel)
        plan = finalize_plan(
            context,
            "probe",
            {},
            {"data": CHW, "relu_a": CHW, "relu_b": CHW, "add": CHW},
        )
        # Tamper one join edge so the add would receive mixed layouts.
        for edge in plan.edge_decisions:
            if edge.producer == "relu_b" and edge.consumer == "add":
                edge.target_layout = CHW8c
        with pytest.raises(ValueError, match="different layouts"):
            NetworkExecutor(net, plan, library)

    def test_distinct_target_layouts_still_convert_separately(
        self, library, dt_graph, intel
    ):
        from repro.core.legalize import finalize_plan
        from repro.graph.layer import ConcatLayer, InputLayer, ReLULayer
        from repro.graph.network import Network
        from repro.layouts.layout import CHW, CHW8c, HWC

        net = Network("fanout-mixed")
        net.add_layer(InputLayer("data", shape=(4, 8, 8)))
        net.add_layer(ReLULayer("relu_a"), ["data"])
        net.add_layer(ReLULayer("relu_b"), ["data"])
        net.add_layer(ConcatLayer("concat"), ["relu_a", "relu_b"])
        net.validate()
        context = self._context(net, library, dt_graph, intel)
        plan = finalize_plan(
            context,
            "probe",
            {},
            {"data": CHW, "relu_a": CHW8c, "relu_b": HWC, "concat": CHW},
        )
        executor = NetworkExecutor(net, plan, library)
        x = np.random.default_rng(6).standard_normal((4, 8, 8)).astype(np.float32)
        out, trace = executor.run_traced(x)
        # Different targets on the two fan-out edges: nothing can be reused.
        assert trace.conversions_executed == len(plan.conversions())
        expected = np.concatenate([np.maximum(x, 0.0)] * 2, axis=0)
        np.testing.assert_allclose(out, expected, rtol=1e-6, atol=1e-6)


class TestCodegen:
    @pytest.fixture(scope="class")
    def context(self, tiny_network_session, library, dt_graph, intel):
        return Session(library=library, dt_graph=dt_graph).context_for(tiny_network_session, intel)

    def test_schedule_contains_every_layer(self, context):
        plan = PBQPSelector().select(context)
        schedule = generate_schedule(context.network, plan)
        layers_emitted = {step.layer for step in schedule}
        assert layers_emitted == set(context.network.layer_names())

    def test_conversion_steps_match_plan(self, context):
        plan = PBQPSelector().select(context)
        schedule = generate_schedule(context.network, plan)
        converts = [step for step in schedule if step.kind == "convert"]
        assert len(converts) == len(plan.conversions())

    def test_render_is_readable(self, context):
        plan = sum2d_plan(context)
        text = render_schedule(context.network, plan)
        assert "// schedule for" in text
        assert "sum2d" in text
