"""Tests for the layer hierarchy and the network DAG."""

import pytest

from repro.graph.layer import (
    ConcatLayer,
    ConvLayer,
    DropoutLayer,
    EltwiseAddLayer,
    FlattenLayer,
    FullyConnectedLayer,
    InputLayer,
    LayerKind,
    LRNLayer,
    PoolLayer,
    PoolMode,
    ReLULayer,
    SoftmaxLayer,
)
from repro.graph.network import Network, NetworkValidationError


class TestLayerShapes:
    def test_input_layer(self):
        layer = InputLayer("data", shape=(3, 224, 224))
        assert layer.output_shape([]) == (3, 224, 224)
        with pytest.raises(ValueError):
            layer.output_shape([(3, 4, 5)])

    def test_conv_layer_scenario_and_shape(self):
        layer = ConvLayer("conv", out_channels=64, kernel=7, stride=2, padding=3)
        scenario = layer.scenario((3, 224, 224))
        assert scenario.output_shape == (64, 112, 112)
        assert layer.output_shape([(3, 224, 224)]) == (64, 112, 112)
        assert layer.is_convolution
        assert layer.kind is LayerKind.CONVOLUTION

    def test_pool_layer_ceil_mode_matches_caffe(self):
        # AlexNet pool1: 55 -> 27 with kernel 3 stride 2 (ceil rounding).
        pool = PoolLayer("pool", kernel=3, stride=2, mode=PoolMode.MAX)
        assert pool.output_shape([(96, 55, 55)]) == (96, 27, 27)
        # GoogLeNet pool1: 112 -> 56.
        assert pool.output_shape([(64, 112, 112)]) == (64, 56, 56)

    def test_pool_layer_floor_mode(self):
        pool = PoolLayer("pool", kernel=2, stride=2, ceil_mode=False)
        assert pool.output_shape([(64, 224, 224)]) == (64, 112, 112)
        assert pool.output_shape([(64, 7, 7)]) == (64, 3, 3)

    def test_pool_with_padding_matches_caffe_geometry(self):
        # Caffe: ceil((14 + 2*1 - 3) / 2) + 1 = 8, and the last window starts
        # inside the padded input so it is not clipped.
        pool = PoolLayer("pool", kernel=3, stride=2, padding=1)
        assert pool.output_shape([(16, 14, 14)])[1:] == (8, 8)
        # The inception branch pool (kernel 3, stride 1, pad 1) preserves size.
        branch_pool = PoolLayer("pool", kernel=3, stride=1, padding=1)
        assert branch_pool.output_shape([(16, 14, 14)])[1:] == (14, 14)

    def test_shape_preserving_layers(self):
        shape = (32, 14, 14)
        assert ReLULayer("r").output_shape([shape]) == shape
        assert LRNLayer("n").output_shape([shape]) == shape
        assert DropoutLayer("d").output_shape([shape]) == shape
        assert SoftmaxLayer("s").output_shape([shape]) == shape

    def test_fully_connected_and_flatten(self):
        assert FullyConnectedLayer("fc", out_features=4096).output_shape([(256, 6, 6)]) == (
            4096,
            1,
            1,
        )
        assert FlattenLayer("f").output_shape([(256, 6, 6)]) == (256 * 36, 1, 1)

    def test_concat_sums_channels(self):
        concat = ConcatLayer("c")
        assert concat.output_shape([(64, 28, 28), (128, 28, 28), (32, 28, 28)]) == (224, 28, 28)

    def test_concat_rejects_mismatched_spatial(self):
        concat = ConcatLayer("c")
        with pytest.raises(ValueError):
            concat.output_shape([(64, 28, 28), (64, 14, 14)])

    def test_concat_requires_inputs(self):
        with pytest.raises(ValueError):
            ConcatLayer("c").output_shape([])

    def test_fc_macs(self):
        fc = FullyConnectedLayer("fc", out_features=10)
        assert fc.macs((4, 2, 2)) == 4 * 2 * 2 * 10

    def test_eltwise_add_preserves_shape(self):
        add = EltwiseAddLayer("add")
        assert add.kind is LayerKind.ELTWISE_ADD
        assert add.arity() == (2, -1)
        assert add.output_shape([(64, 28, 28), (64, 28, 28)]) == (64, 28, 28)
        assert add.output_shape([(8, 4, 4)] * 3) == (8, 4, 4)

    def test_eltwise_add_rejects_mismatched_shapes(self):
        add = EltwiseAddLayer("add")
        with pytest.raises(ValueError):
            add.output_shape([(64, 28, 28), (32, 28, 28)])
        with pytest.raises(ValueError):
            add.output_shape([(64, 28, 28), (64, 14, 14)])

    def test_eltwise_add_arity_enforced_in_network(self):
        net = Network("n")
        net.add_layer(InputLayer("data", shape=(4, 8, 8)))
        with pytest.raises(NetworkValidationError):
            net.add_layer(EltwiseAddLayer("add"), ["data"])


class TestPoolGeometryEdgeCases:
    """The ceil/padding clipping branch of :meth:`PoolLayer._pooled`."""

    def test_ceil_mode_clips_window_starting_in_the_padding(self):
        # 13 -> padded 13+2*1: ceil((13 + 2 - 3) / 2) + 1 = 7 + 1 = 8, but the
        # 8th window would start at offset 14 >= 13 + 1, outside the real
        # input — Caffe clips it back to 7.
        pool = PoolLayer("pool", kernel=3, stride=2, padding=1)
        assert pool.output_shape([(8, 13, 13)])[1:] == (7, 7)

    def test_clipping_only_applies_with_padding(self):
        # Without padding the same geometry keeps the ceil-rounded extra
        # window (it covers real input rows).
        pool = PoolLayer("pool", kernel=3, stride=2, padding=0)
        assert pool.output_shape([(8, 13, 13)])[1:] == (6, 6)
        assert pool.output_shape([(8, 14, 14)])[1:] == (7, 7)

    def test_global_pool_collapses_to_one_pixel(self):
        pool = PoolLayer("pool", kernel=7, stride=1, mode=PoolMode.AVERAGE)
        assert pool.output_shape([(1024, 7, 7)]) == (1024, 1, 1)
        floor_pool = PoolLayer("pool", kernel=7, stride=1, ceil_mode=False)
        assert floor_pool.output_shape([(512, 7, 7)]) == (512, 1, 1)

    def test_kernel_larger_than_input_is_floored_to_one(self):
        pool = PoolLayer("pool", kernel=5, stride=2, ceil_mode=False)
        assert pool.output_shape([(4, 3, 3)]) == (4, 1, 1)

    def test_ceil_and_floor_disagree_on_odd_remainders(self):
        ceil_pool = PoolLayer("pool", kernel=3, stride=2, ceil_mode=True)
        floor_pool = PoolLayer("pool", kernel=3, stride=2, ceil_mode=False)
        # 10 - 3 = 7: ceil(7/2)+1 = 5, floor(7/2)+1 = 4.
        assert ceil_pool.output_shape([(4, 10, 10)])[1:] == (5, 5)
        assert floor_pool.output_shape([(4, 10, 10)])[1:] == (4, 4)

    def test_rectangular_inputs_pool_per_axis(self):
        pool = PoolLayer("pool", kernel=3, stride=2, padding=1)
        assert pool.output_shape([(8, 13, 14)]) == (8, 7, 8)


class TestNetwork:
    def test_duplicate_layer_rejected(self):
        net = Network("n")
        net.add_layer(InputLayer("data", shape=(3, 8, 8)))
        with pytest.raises(NetworkValidationError):
            net.add_layer(InputLayer("data", shape=(3, 8, 8)))

    def test_unknown_producer_rejected(self):
        net = Network("n")
        with pytest.raises(NetworkValidationError):
            net.add_layer(ReLULayer("r"), ["ghost"])

    def test_arity_enforced(self):
        net = Network("n")
        net.add_layer(InputLayer("a", shape=(1, 4, 4)))
        net.add_layer(InputLayer("b", shape=(1, 4, 4)))
        with pytest.raises(NetworkValidationError):
            net.add_layer(ReLULayer("r"), ["a", "b"])

    def test_topological_order_respects_dependencies(self, tiny_network):
        order = [layer.name for layer in tiny_network.topological_order()]
        assert order.index("conv1") < order.index("pool1")
        assert order.index("branch2_reduce") < order.index("branch2")
        for producer in ("branch1", "branch2", "branch3"):
            assert order.index(producer) < order.index("concat")

    def test_add_layer_after_topological_order_invalidates_it(self):
        net = Network("grow")
        net.add_layer(InputLayer("data", shape=(1, 4, 4)))
        net.add_layer(ReLULayer("a"), ["data"])
        assert [layer.name for layer in net.topological_order()] == ["data", "a"]
        net.add_layer(ReLULayer("b"), ["a"])
        assert [layer.name for layer in net.topological_order()] == ["data", "a", "b"]

    def test_mutating_a_returned_order_does_not_leak(self, tiny_network):
        expected = [layer.name for layer in tiny_network.topological_order()]
        order = tiny_network.topological_order()
        order.reverse()
        order.pop()
        assert tiny_network.topological_order() is not order
        assert [layer.name for layer in tiny_network.topological_order()] == expected

    def test_failed_add_layer_keeps_the_order(self):
        net = Network("n")
        net.add_layer(InputLayer("data", shape=(1, 4, 4)))
        before = net.topological_order()
        with pytest.raises(NetworkValidationError):
            net.add_layer(ReLULayer("r"), ["ghost"])
        assert net.topological_order() == before

    def test_shape_inference_on_branching_network(self, tiny_network):
        shapes = tiny_network.infer_shapes()
        assert shapes["conv1"] == (8, 16, 16)
        assert shapes["pool1"] == (8, 8, 8)
        assert shapes["concat"] == (20, 8, 8)
        assert shapes["prob"] == (10, 1, 1)

    def test_conv_scenarios_extraction(self, tiny_network):
        scenarios = tiny_network.conv_scenarios()
        assert set(scenarios) == {
            "conv1",
            "branch1",
            "branch2_reduce",
            "branch2",
            "branch3",
            "conv2",
        }
        assert scenarios["conv1"].stride == 2
        assert scenarios["conv2"].groups == 2

    def test_edges_and_consumers(self, tiny_network):
        assert set(tiny_network.consumers_of("pool1")) == {
            "branch1",
            "branch2_reduce",
            "branch3_pool",
        }
        assert tiny_network.inputs_of("concat") == ["branch1", "branch2", "branch3"]
        assert len(tiny_network.edges()) == sum(
            len(tiny_network.inputs_of(name)) for name in tiny_network.layer_names()
        )

    def test_output_layers(self, tiny_network):
        assert [layer.name for layer in tiny_network.output_layers()] == ["prob"]

    def test_layer_lookup_errors(self, tiny_network):
        with pytest.raises(KeyError):
            tiny_network.layer("missing")
        assert "conv1" in tiny_network
        assert "missing" not in tiny_network

    def test_cycle_detection(self):
        net = Network("cyclic")
        net.add_layer(InputLayer("data", shape=(1, 4, 4)))
        net.add_layer(ReLULayer("a"), ["data"])
        net.add_layer(ReLULayer("b"), ["a"])
        # Manufacture a cycle by editing the internal structures directly.
        net._inputs["a"].append("b")
        net._consumers["b"].append("a")
        with pytest.raises(NetworkValidationError):
            net.topological_order()

    def test_validate_empty_network(self):
        with pytest.raises(NetworkValidationError):
            Network("empty").validate()

    def test_validate_requires_input_layer(self):
        net = Network("no-input")
        net.add_layer(InputLayer("data", shape=(1, 4, 4)))
        net.add_layer(ReLULayer("r"), ["data"])
        # Simulate a graph whose entry point is not an InputLayer (e.g. built
        # by hand or deserialized incorrectly).
        del net._layers["data"]
        del net._inputs["data"]
        del net._consumers["data"]
        net._inputs["r"] = []
        with pytest.raises(NetworkValidationError):
            net.validate()

    def test_validate_passes_on_well_formed_network(self, tiny_network):
        tiny_network.validate()

    def test_total_conv_macs_positive(self, tiny_network):
        assert tiny_network.total_conv_macs() > 0

    def test_summary_mentions_every_layer(self, tiny_network):
        text = tiny_network.summary()
        for name in tiny_network.layer_names():
            assert name in text
