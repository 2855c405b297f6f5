"""Executor correctness under layout conversions.

Satellite coverage for the runtime: every convolution primitive in the
library must compute the same function as the SUM2D reference when the
legalizer wraps it in each legal layout-conversion chain — i.e. for every
layout ``L`` of the DT graph, the chains ``L -> primitive.input_layout`` and
``primitive.output_layout -> L`` that :func:`repro.core.legalize.finalize_plan`
emits around the primitive must not change the result.  The same guarantee
is checked for the structures the residual/depthwise zoo added: depthwise
convolutions (every primitive that claims to support ``groups == C``) and
eltwise-add joins whose branches are wrapped in conversion chains.
"""

import numpy as np
import pytest

from repro.core.legalize import finalize_plan
from repro.api import Session
from repro.graph.layer import ConvLayer, EltwiseAddLayer, InputLayer, ReLULayer
from repro.graph.network import Network
from repro.graph.scenario import ConvScenario
from repro.runtime import NetworkExecutor, WeightStore
from repro.primitives.registry import default_primitive_library

#: The probe scenario every parametrized primitive must support.
PROBE_SCENARIO = ConvScenario(c=4, h=12, w=12, stride=1, k=3, m=6, padding=1)

#: A MobileNet-shaped depthwise scenario (one input channel per group).
DEPTHWISE_SCENARIO = ConvScenario(c=8, h=12, w=12, stride=1, k=3, m=8, padding=1, groups=8)

#: A strided depthwise scenario (the downsampling blocks of MobileNet).
STRIDED_DEPTHWISE_SCENARIO = ConvScenario(
    c=8, h=12, w=12, stride=2, k=3, m=8, padding=1, groups=8
)

#: Applicable primitive names, resolved at collection time for parametrize.
PRIMITIVE_NAMES = sorted(
    primitive.name for primitive in default_primitive_library().applicable(PROBE_SCENARIO)
)

DEPTHWISE_PRIMITIVE_NAMES = sorted(
    primitive.name
    for primitive in default_primitive_library().applicable(DEPTHWISE_SCENARIO)
)


def build_probe_network() -> Network:
    net = Network("conversion-probe")
    net.add_layer(InputLayer("data", shape=PROBE_SCENARIO.input_shape))
    net.add_layer(
        ConvLayer(
            "conv",
            out_channels=PROBE_SCENARIO.m,
            kernel=PROBE_SCENARIO.k,
            stride=PROBE_SCENARIO.stride,
            padding=PROBE_SCENARIO.padding,
        ),
        ["data"],
    )
    net.add_layer(ReLULayer("relu"), ["conv"])
    net.validate()
    return net


@pytest.fixture(scope="module")
def probe(library, dt_graph, intel):
    """(context, weights, input, reference output) shared by every case."""
    network = build_probe_network()
    context = Session(library=library, dt_graph=dt_graph).context_for(network, intel)
    weights = WeightStore(network, seed=21)
    x = np.random.default_rng(8).standard_normal(PROBE_SCENARIO.input_shape)
    x = x.astype(np.float32)
    from repro.layouts.layout import CHW

    reference_plan = finalize_plan(
        context, "reference", {"conv": "sum2d"}, {"data": CHW, "relu": CHW}
    )
    reference = NetworkExecutor(network, reference_plan, library, weights).run(x)
    return context, weights, x, reference


def test_probe_covers_the_library():
    """The probe scenario exercises the overwhelming majority of the library."""
    assert len(PRIMITIVE_NAMES) >= 60


@pytest.mark.parametrize("primitive_name", PRIMITIVE_NAMES)
def test_primitive_matches_reference_under_every_conversion_chain(primitive_name, probe):
    context, weights, x, reference = probe
    network = context.network
    executed_chains = 0
    for layout in context.dt_graph.layouts:
        plan = finalize_plan(
            context,
            "probe",
            {"conv": primitive_name},
            {"data": layout, "relu": layout},
        )
        executor = NetworkExecutor(network, plan, context.library, weights)
        output, trace = executor.run_traced(x)
        executed_chains += trace.conversions_executed
        np.testing.assert_allclose(
            output,
            reference,
            rtol=1e-3,
            atol=1e-4,
            err_msg=f"{primitive_name} diverges when wrapped in {layout.name} conversions",
        )
    primitive = context.library.get(primitive_name)
    # Sanity: chains were actually exercised — every layout other than the
    # primitive's own endpoints forces at least one conversion.
    distinct_endpoints = len({primitive.input_layout.name, primitive.output_layout.name})
    layouts = len(context.dt_graph.layouts)
    assert executed_chains >= 2 * layouts - 2 * distinct_endpoints


# ---------------------------------------------------------------------------
# Depthwise convolutions
# ---------------------------------------------------------------------------


def build_depthwise_network(scenario: ConvScenario) -> Network:
    net = Network("depthwise-probe")
    net.add_layer(InputLayer("data", shape=scenario.input_shape))
    net.add_layer(
        ConvLayer(
            "conv",
            out_channels=scenario.m,
            kernel=scenario.k,
            stride=scenario.stride,
            padding=scenario.padding,
            groups=scenario.groups,
        ),
        ["data"],
    )
    net.add_layer(ReLULayer("relu"), ["conv"])
    net.validate()
    return net


def test_depthwise_capability_model():
    """kn2/FFT decline depthwise; direct, im2 and Winograd families run it."""
    library = default_primitive_library()
    names = set(DEPTHWISE_PRIMITIVE_NAMES)
    assert not any(name.startswith(("kn2", "fft")) for name in names)
    for prefix in ("sum2d", "direct", "im2", "winograd"):
        assert any(name.startswith(prefix) for name in names), prefix
    # Strided depthwise additionally drops the unit-stride-only Winograd.
    strided = {p.name for p in library.applicable(STRIDED_DEPTHWISE_SCENARIO)}
    assert not any(name.startswith(("kn2", "fft", "winograd")) for name in strided)
    assert any(name.startswith("im2") for name in strided)


@pytest.fixture(scope="module")
def depthwise_probe(library, dt_graph, intel):
    """(context, weights, input, reference output) for the depthwise probe."""
    from repro.layouts.layout import CHW

    network = build_depthwise_network(DEPTHWISE_SCENARIO)
    context = Session(library=library, dt_graph=dt_graph).context_for(network, intel)
    weights = WeightStore(network, seed=17)
    x = np.random.default_rng(12).standard_normal(DEPTHWISE_SCENARIO.input_shape)
    x = x.astype(np.float32)
    reference_plan = finalize_plan(
        context, "reference", {"conv": "sum2d"}, {"data": CHW, "relu": CHW}
    )
    reference = NetworkExecutor(network, reference_plan, library, weights).run(x)
    return context, weights, x, reference


@pytest.mark.parametrize("primitive_name", DEPTHWISE_PRIMITIVE_NAMES)
def test_depthwise_matches_reference_under_every_conversion_chain(
    primitive_name, depthwise_probe
):
    context, weights, x, reference = depthwise_probe
    network = context.network
    for layout in context.dt_graph.layouts:
        plan = finalize_plan(
            context,
            "probe",
            {"conv": primitive_name},
            {"data": layout, "relu": layout},
        )
        executor = NetworkExecutor(network, plan, context.library, weights)
        output = executor.run(x)
        np.testing.assert_allclose(
            output,
            reference,
            rtol=1e-3,
            atol=1e-4,
            err_msg=(
                f"{primitive_name} diverges on a depthwise scenario wrapped in "
                f"{layout.name} conversions"
            ),
        )


@pytest.mark.parametrize(
    "primitive_name",
    sorted(
        p.name
        for p in default_primitive_library().applicable(STRIDED_DEPTHWISE_SCENARIO)
    ),
)
def test_strided_depthwise_matches_reference(primitive_name, library, dt_graph, intel):
    from repro.layouts.layout import CHW

    network = build_depthwise_network(STRIDED_DEPTHWISE_SCENARIO)
    context = Session(library=library, dt_graph=dt_graph).context_for(network, intel)
    weights = WeightStore(network, seed=23)
    x = np.random.default_rng(13).standard_normal(
        STRIDED_DEPTHWISE_SCENARIO.input_shape
    ).astype(np.float32)
    reference_plan = finalize_plan(
        context, "reference", {"conv": "sum2d"}, {"data": CHW, "relu": CHW}
    )
    reference = NetworkExecutor(network, reference_plan, library, weights).run(x)
    plan = finalize_plan(
        context, "probe", {"conv": primitive_name}, {"data": CHW, "relu": CHW}
    )
    output = NetworkExecutor(network, plan, library, weights).run(x)
    np.testing.assert_allclose(output, reference, rtol=1e-3, atol=1e-4)


# ---------------------------------------------------------------------------
# Eltwise-add joins
# ---------------------------------------------------------------------------


def build_residual_network() -> Network:
    """A miniature residual block: the input fans out and rejoins in an add."""
    net = Network("residual-probe")
    net.add_layer(InputLayer("data", shape=PROBE_SCENARIO.input_shape))
    net.add_layer(
        ConvLayer(
            "conv",
            out_channels=PROBE_SCENARIO.input_shape[0],
            kernel=PROBE_SCENARIO.k,
            stride=1,
            padding=PROBE_SCENARIO.padding,
        ),
        ["data"],
    )
    net.add_layer(ReLULayer("branch"), ["conv"])
    net.add_layer(EltwiseAddLayer("add"), ["branch", "data"])
    net.add_layer(ReLULayer("relu"), ["add"])
    net.validate()
    return net


#: One representative primitive per family for the residual-join sweep (the
#: whole-library sweep above already covers per-primitive numerics).
RESIDUAL_SWEEP_PRIMITIVES = [
    "sum2d",
    "direct_mchw_vf8",
    "im2row_vf8",
    "kn2col_acc_vf8",
    "winograd_2d_m2_r3_vf8",
    "winograd_1d_m2_r3_vf4",
    "fft_1d_chw_vf1",
]


@pytest.fixture(scope="module")
def residual_probe(library, dt_graph, intel):
    from repro.layouts.layout import CHW

    network = build_residual_network()
    context = Session(library=library, dt_graph=dt_graph).context_for(network, intel)
    weights = WeightStore(network, seed=29)
    x = np.random.default_rng(14).standard_normal(PROBE_SCENARIO.input_shape)
    x = x.astype(np.float32)
    wildcard = {"data": CHW, "branch": CHW, "add": CHW, "relu": CHW}
    reference_plan = finalize_plan(context, "reference", {"conv": "sum2d"}, wildcard)
    reference = NetworkExecutor(network, reference_plan, library, weights).run(x)
    return context, weights, x, reference


@pytest.mark.parametrize("primitive_name", RESIDUAL_SWEEP_PRIMITIVES)
def test_residual_join_matches_reference_under_every_conversion_chain(
    primitive_name, residual_probe
):
    """The add executes correctly whatever layout the join operates in.

    For every DT-graph layout ``L`` the whole wildcard region (both join
    inputs and the output path) is pinned to ``L``, so the legalizer has to
    wrap the convolution branch *and* the shortcut edge in conversion chains
    ending at the join — the exact structure of a ResNet basic block.
    """
    context, weights, x, reference = residual_probe
    network = context.network
    for layout in context.dt_graph.layouts:
        plan = finalize_plan(
            context,
            "probe",
            {"conv": primitive_name},
            {"data": layout, "branch": layout, "add": layout, "relu": layout},
        )
        executor = NetworkExecutor(network, plan, context.library, weights)
        output = executor.run(x)
        np.testing.assert_allclose(
            output,
            reference,
            rtol=1e-3,
            atol=1e-4,
            err_msg=(
                f"{primitive_name} residual join diverges when the join "
                f"operates in {layout.name}"
            ),
        )
