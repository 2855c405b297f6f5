"""E2 — Figure 4: PBQP selections for AlexNet on ARM Cortex-A57 and Intel Core i5.

Regenerates the per-layer selection table for multithreaded execution on both
platforms and asserts the structural properties the paper highlights: im2 for
the K=11 stride-4 conv1, Winograd for the remaining layers, AVX2 (VF8) 2D
variants on Intel versus NEON (VF4) mostly-1D variants on ARM.
"""

from benchmarks.conftest import emit
from repro.experiments.selections import alexnet_selection_comparison


def test_figure4_alexnet_selections(benchmark):
    comparison = benchmark.pedantic(
        lambda: alexnet_selection_comparison(threads=4), rounds=1, iterations=1
    )
    emit(comparison.format())

    intel = comparison.selections["intel-haswell"]
    arm = comparison.selections["arm-cortex-a57"]
    rest = ("conv2", "conv3", "conv4", "conv5")

    assert intel["conv1"].startswith("im2")
    assert arm["conv1"].startswith("im2")
    assert all("winograd" in intel[layer] for layer in rest)
    assert all("winograd" in arm[layer] for layer in rest)
    assert all("vf8" in intel[layer] for layer in rest)
    assert all("vf4" in arm[layer] for layer in rest)
    assert all("winograd_2d" in intel[layer] for layer in rest)
    assert sum("winograd_1d" in arm[layer] for layer in rest) >= 2
