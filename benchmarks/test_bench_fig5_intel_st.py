"""E3 — Figure 5: single-threaded whole-network speedups on Intel Haswell.

For AlexNet, VGG-B, VGG-C, VGG-E and GoogLeNet, every strategy bar of the
figure (direct / im2 / kn2 / Winograd / fft family greedy, Local Optimal
(CHW), PBQP, MKL-DNN, Caffe) is evaluated and reported as a speedup over the
single-threaded SUM2D baseline.  The assertions encode the figure's shape:
PBQP is the best non-vendor strategy everywhere and beats Local Optimal, and
the Winograd-only strategy approaches PBQP only on the all-K=3 VGG models.
"""

import pytest

from benchmarks.conftest import emit, smoke_networks, smoke_skip
from repro.experiments.whole_network import (
    FIGURE_NETWORKS,
    format_speedup_table,
    run_whole_network,
)

NETWORKS = smoke_networks(FIGURE_NETWORKS["intel-haswell"])


@pytest.fixture(scope="module")
def figure5_results(intel):
    return [
        run_whole_network(name, intel, threads=1) for name in NETWORKS
    ]


def test_figure5_single_threaded_intel(benchmark, intel, figure5_results):
    benchmark.pedantic(
        lambda: run_whole_network("alexnet", intel, threads=1),
        rounds=1,
        iterations=1,
    )
    emit(format_speedup_table(figure5_results, "Figure 5 — whole-network speedups, Intel Haswell, single-threaded"))

    for result in figure5_results:
        speedups = result.speedups()
        # PBQP dominates every non-vendor strategy and the vendor libraries.
        for strategy, value in speedups.items():
            if strategy != "pbqp":
                assert speedups["pbqp"] >= value - 1e-9, (result.network, strategy)
        assert speedups["pbqp"] > 1.0
        assert speedups["pbqp"] > speedups["local_optimal"]


@smoke_skip
def test_figure5_winograd_behaviour_matches_paper(figure5_results):
    by_network = {result.network: result.speedups() for result in figure5_results}
    # Winograd-only is close to PBQP on the all-3x3 VGG-B/E models (on VGG-C
    # the three 1x1 layers fall back to SUM2D, so the bar sits lower)...
    for vgg in ("vgg-b", "vgg-e"):
        assert by_network[vgg]["winograd"] >= 0.85 * by_network[vgg]["pbqp"]
    assert by_network["vgg-c"]["winograd"] >= 0.6 * by_network["vgg-c"]["pbqp"]
    # ...and Winograd is the best family bar on every VGG model.
    for vgg in ("vgg-b", "vgg-c", "vgg-e"):
        families = {k: by_network[vgg][k] for k in ("direct", "im2", "kn2", "winograd", "fft")}
        assert max(families, key=families.get) == "winograd"
    # But it is far from PBQP on AlexNet and GoogLeNet.
    assert by_network["alexnet"]["winograd"] < 0.6 * by_network["alexnet"]["pbqp"]
    assert by_network["googlenet"]["winograd"] < 0.6 * by_network["googlenet"]["pbqp"]


def test_figure5_local_optimal_always_loses_to_pbqp(figure5_results):
    """Section 6: the canonical-layout strategy is always outperformed by PBQP."""
    gaps = {
        result.network: result.speedup("pbqp") / result.speedup("local_optimal")
        for result in figure5_results
    }
    assert all(gap > 1.0 for gap in gaps.values())
    # The AlexNet gap is wide, as in the paper.
    assert gaps["alexnet"] > 1.3
