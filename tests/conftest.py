"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cost.analytical import AnalyticalCostModel
from repro.cost.platform import PLATFORMS
from repro.graph.layer import (
    ConcatLayer,
    ConvLayer,
    FlattenLayer,
    FullyConnectedLayer,
    InputLayer,
    LRNLayer,
    PoolLayer,
    ReLULayer,
    SoftmaxLayer,
)
from repro.graph.network import Network
from repro.graph.scenario import ConvScenario
from repro.layouts.dt_graph import DTGraph
from repro.layouts.layout import STANDARD_LAYOUTS
from repro.layouts.transforms import default_transform_library
from repro.primitives.registry import default_primitive_library


@pytest.fixture(scope="session")
def library():
    """The full primitive library (built once per test session)."""
    return default_primitive_library()


@pytest.fixture(scope="session")
def dt_graph():
    """The standard DT graph over the standard layouts."""
    return DTGraph(STANDARD_LAYOUTS.values(), default_transform_library())


@pytest.fixture(scope="session")
def intel():
    return PLATFORMS["intel-haswell"]


@pytest.fixture(scope="session")
def arm():
    return PLATFORMS["arm-cortex-a57"]


@pytest.fixture(scope="session")
def intel_cost_model(intel):
    return AnalyticalCostModel(intel)


@pytest.fixture(scope="session")
def arm_cost_model(arm):
    return AnalyticalCostModel(arm)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_scenario():
    """A small unit-stride K=3 scenario most primitives support."""
    return ConvScenario(c=4, h=12, w=12, stride=1, k=3, m=6, padding=1)


def layer_rows(model, primitives, scenario, threads=1):
    """The priced rows of one layer: ``price_layers`` over a one-layer list."""
    (rows,) = model.price_layers([(primitives, scenario)], threads)
    return rows


def build_tiny_network() -> Network:
    """A small but structurally rich network: stride, 1x1, branches, groups, FC."""
    net = Network("tiny")
    net.add_layer(InputLayer("data", shape=(3, 32, 32)))
    net.add_layer(ConvLayer("conv1", out_channels=8, kernel=5, stride=2, padding=2), ["data"])
    net.add_layer(ReLULayer("relu1"), ["conv1"])
    net.add_layer(PoolLayer("pool1", kernel=3, stride=2), ["relu1"])
    net.add_layer(ConvLayer("branch1", out_channels=8, kernel=1), ["pool1"])
    net.add_layer(ConvLayer("branch2_reduce", out_channels=4, kernel=1), ["pool1"])
    net.add_layer(ConvLayer("branch2", out_channels=8, kernel=3, padding=1), ["branch2_reduce"])
    net.add_layer(PoolLayer("branch3_pool", kernel=3, stride=1, padding=1), ["pool1"])
    net.add_layer(ConvLayer("branch3", out_channels=4, kernel=1), ["branch3_pool"])
    net.add_layer(ConcatLayer("concat"), ["branch1", "branch2", "branch3"])
    net.add_layer(LRNLayer("norm"), ["concat"])
    net.add_layer(
        ConvLayer("conv2", out_channels=16, kernel=3, padding=1, groups=2), ["norm"]
    )
    net.add_layer(FlattenLayer("flatten"), ["conv2"])
    net.add_layer(FullyConnectedLayer("fc", out_features=10), ["flatten"])
    net.add_layer(SoftmaxLayer("prob"), ["fc"])
    net.validate()
    return net


@pytest.fixture
def tiny_network():
    """A fresh copy of the tiny branching network."""
    return build_tiny_network()


@pytest.fixture(scope="session")
def tiny_network_session():
    """A session-scoped copy of the tiny network for read-only tests."""
    return build_tiny_network()
