"""Whole-network benchmarking harness (Figures 5, 6, 7a and 7b of the paper).

The paper's figures plot, for each network and strategy, the speedup of one
forward pass over a common baseline: the whole network implemented with the
single-threaded sum-of-single-channels (SUM2D) algorithm.  The strategies are
the five per-family greedy instantiations (direct, im2, kn2, Winograd, fft),
the canonical-layout "Local Optimal (CHW)" strategy, the PBQP selection, and
the vendor frameworks available on each platform (MKL-DNN and Caffe on Intel,
ARM Compute Library and Caffe on ARM).

:func:`run_whole_network` evaluates every strategy for one
(network, platform, thread-count) combination and returns a
:class:`WholeNetworkResult` whose rows mirror the bars of the corresponding
figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.core.strategies import (
    BASELINE_STRATEGY,
    figure_strategy_names,
    registered_names,
)
from repro.cost.platform import Platform

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import Session

#: Networks per figure, exactly as in the paper (VGG-B/C/E do not fit on the
#: embedded board, so the ARM figures cover AlexNet and GoogLeNet only).
FIGURE_NETWORKS: Dict[str, List[str]] = {
    "intel-haswell": ["alexnet", "vgg-b", "vgg-c", "vgg-e", "googlenet"],
    "arm-cortex-a57": ["alexnet", "googlenet"],
}

#: Networks used for platforms without a dedicated figure in the paper
#: (anything registered beyond the original pair).
DEFAULT_FIGURE_NETWORKS: List[str] = ["alexnet", "googlenet"]

#: The post-paper zoo extension: residual (ResNet-18) and depthwise-separable
#: (MobileNet-v1) networks, per platform.  Both fit on the embedded board
#: (MobileNet was designed for it), so they run everywhere.
EXTENDED_NETWORKS: Dict[str, List[str]] = {
    "intel-haswell": ["resnet18", "mobilenet_v1"],
    "arm-cortex-a57": ["resnet18", "mobilenet_v1"],
}


@dataclass
class WholeNetworkResult:
    """All strategy measurements for one (network, platform, threads) cell."""

    network: str
    platform: str
    threads: int
    #: Total time of the common baseline (single-threaded SUM2D), in ms.
    baseline_ms: float
    #: Strategy name -> total time in ms, in registration order.
    times_ms: Dict[str, float] = field(default_factory=dict)

    def speedup(self, strategy: str) -> float:
        """Speedup of a strategy over the common single-threaded SUM2D baseline."""
        return self.baseline_ms / self.times_ms[strategy]

    def speedups(self) -> Dict[str, float]:
        """Speedups of every evaluated strategy, in figure bar order."""
        return {
            name: self.speedup(name)
            for name in figure_strategy_names()
            if name in self.times_ms
        }

    def best_strategy(self) -> str:
        """The fastest strategy for this cell."""
        return min(self.times_ms, key=self.times_ms.get)


def run_whole_network(
    model_name: str,
    platform: Platform,
    threads: int = 1,
    include_frameworks: bool = True,
    session: Optional["Session"] = None,
) -> WholeNetworkResult:
    """Evaluate every strategy of the figures for one network/platform/threads.

    The speedup baseline is always the *single-threaded* SUM2D instantiation,
    matching the paper's methodology ("all bars represent a speedup over a
    common baseline ... with single-threaded execution").

    Pass a shared :class:`repro.api.Session` to reuse profiled cost tables
    across calls (and, with a session ``cache_dir``, across processes).
    """
    if session is None:
        from repro.api import Session

        session = Session()
    report = session.compare(
        model_name, platform, threads, include_frameworks=include_frameworks
    )
    totals = {plan.strategy: plan.total_ms for plan in report}
    return WholeNetworkResult(
        network=model_name,
        platform=platform.name,
        threads=threads,
        baseline_ms=report.baseline.total_ms,
        # SUM2D is no bar of its own: it is the single-threaded baseline.
        times_ms={
            name: totals[name]
            for name in registered_names()
            if name in totals and name != BASELINE_STRATEGY
        },
    )


def format_speedup_table(results: List[WholeNetworkResult], title: str) -> str:
    """Render a list of results as the text analogue of one of the figures."""
    strategies = [
        name
        for name in figure_strategy_names()
        if any(name in result.times_ms for result in results)
    ]
    header = f"{'network':<12}" + "".join(f"{name:>15}" for name in strategies)
    lines = [title, header, "-" * len(header)]
    for result in results:
        row = f"{result.network:<12}"
        for name in strategies:
            if name in result.times_ms:
                row += f"{result.speedup(name):>15.2f}"
            else:
                row += f"{'-':>15}"
        lines.append(row)
    lines.append("(speedup over single-threaded SUM2D baseline; higher is better)")
    return "\n".join(lines)
