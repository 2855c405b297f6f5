"""E10 — residual/depthwise zoo extension: ResNet-18 and MobileNet-v1.

The paper's scenario-diversity claim is strongest on DAG-shaped graphs where
layout decisions interact; this benchmark extends the whole-network
evaluation beyond the paper's three families to the residual (ResNet-18) and
depthwise-separable (MobileNet-v1) networks on both modelled platforms.  The
assertions encode the headline: PBQP is at least as fast as *every*
single-primitive-family baseline on both networks, on both platforms, and
the per-layer selections respect the capability model (no kn2/FFT primitive
is ever placed on a depthwise layer, which those families decline).
"""

import pytest

from benchmarks.conftest import emit, smoke_networks
from repro.api import Session
from repro.experiments.selections import selection_comparison
from repro.experiments.whole_network import (
    EXTENDED_NETWORKS,
    format_speedup_table,
    run_whole_network,
)

NETWORKS = smoke_networks(EXTENDED_NETWORKS["intel-haswell"], tiny=("mobilenet_v1",))

#: The single-primitive-family baselines of the figures.
FAMILY_STRATEGIES = ("direct", "im2", "kn2", "winograd", "fft")


@pytest.fixture(scope="module")
def session():
    return Session()


@pytest.fixture(scope="module")
def extended_results(session, intel, arm):
    return {
        platform.name: [
            run_whole_network(name, platform, threads=1, session=session)
            for name in NETWORKS
        ]
        for platform in (intel, arm)
    }


def test_extended_zoo_speedups(benchmark, session, intel, extended_results):
    benchmark.pedantic(
        lambda: run_whole_network(NETWORKS[0], intel, threads=1, session=session),
        rounds=1,
        iterations=1,
    )
    for platform_name, results in extended_results.items():
        emit(
            format_speedup_table(
                results,
                f"Extended zoo — whole-network speedups, {platform_name}, single-threaded",
            )
        )
        for result in results:
            speedups = result.speedups()
            # PBQP >= every single-primitive-family baseline (and every other bar).
            for strategy, value in speedups.items():
                if strategy != "pbqp":
                    assert speedups["pbqp"] >= value - 1e-9, (
                        platform_name,
                        result.network,
                        strategy,
                    )
            assert speedups["pbqp"] > 1.0


def test_depthwise_layers_never_get_kn2_or_fft(session, intel, arm):
    """kn2/FFT decline depthwise scenarios, so no plan may place them there."""
    if "mobilenet_v1" not in NETWORKS:
        pytest.skip("mobilenet_v1 trimmed from this run")
    comparison = selection_comparison(
        "mobilenet_v1", threads=1, platforms=[arm, intel], session=session
    )
    emit(comparison.format())
    for platform_name, selections in comparison.selections.items():
        depthwise = {
            layer: primitive
            for layer, primitive in selections.items()
            if layer.endswith("/dw")
        }
        assert len(depthwise) == 13
        for layer, primitive in depthwise.items():
            assert not primitive.startswith(("kn2", "fft")), (
                platform_name,
                layer,
                primitive,
            )


def test_residual_joins_are_layout_consistent(session, intel):
    """PBQP merges both paths into every residual add in one layout.

    The eltwise join is where layout decisions interact.  Every inbound edge
    of a join must deliver the join's single operating layout (the legalizer
    invariant), and for the identity-shortcut second block of each stage the
    optimal selection keeps the whole block in one blocked layout, so those
    joins are conversion-free.  Downsample blocks may legitimately pay a
    conversion at the join (their 1x1 projection runs in the canonical
    layout).
    """
    if "resnet18" not in NETWORKS:
        pytest.skip("resnet18 trimmed from this run")
    plan = session.plan("resnet18", intel, verify=False).network_plan
    join_layout = {
        name: decision.input_layout.name
        for name, decision in plan.layer_decisions.items()
        if name.endswith("/add")
    }
    assert len(join_layout) == 8
    for edge in plan.edge_decisions:
        if edge.consumer in join_layout:
            assert edge.target_layout.name == join_layout[edge.consumer]
    add_conversions = {
        edge.consumer for edge in plan.conversions() if edge.consumer in join_layout
    }
    emit(
        f"ResNet-18 PBQP on {intel.name}: {len(plan.conversions())} conversions "
        f"total, joins paying one: {sorted(add_conversions) or 'none'}"
    )
    # The identity-shortcut second blocks keep their joins conversion-free.
    for stage in ("conv2", "conv3", "conv4", "conv5"):
        assert f"{stage}_2/add" not in add_conversions
