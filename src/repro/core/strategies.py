"""The strategy table: every way of instantiating a network, one row each.

The paper's contribution is a *selection* framework — PBQP against a field of
baseline and vendor-framework strategies (section 5).  :data:`STRATEGIES`
holds that field as :class:`Strategy` records, and the Session, the CLI and
the service enumerate it instead of importing strategy functions.  Adding a
strategy is adding one row.

Framework emulations are gated by :attr:`Platform.features` (see
:mod:`repro.cost.platform`), not by hard-coded platform names, so registered
third-party platforms pick up the right comparators by declaring features.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.baselines import (
    family_greedy_plan,
    greedy_ignore_dt_plan,
    local_optimal_plan,
    sum2d_plan,
)
from repro.core.frameworks import (
    armcl_like_plan,
    caffe_like_plan,
    cudnn_like_plan,
    mkldnn_like_plan,
)
from repro.core.plan import NetworkPlan
from repro.core.selector import PBQPSelector, SelectionContext
from repro.primitives.base import PrimitiveFamily

#: Name of the strategy whose single-threaded plan is the common speedup baseline.
BASELINE_STRATEGY = "sum2d"


def _everywhere(context: SelectionContext) -> bool:
    return True


def _on_x86(context: SelectionContext) -> bool:
    # MKL-DNN exists for x86 parts (AVX2 desktop and AVX-512 server alike).
    # Feature-less contexts (hand-built platforms, the host profiler) fall
    # back to the historical wide-SIMD heuristic.
    features = context.platform_features
    if features:
        return "x86" in features
    return context.platform_vector_width >= 8


def _on_neon(context: SelectionContext) -> bool:
    # The ARM Compute Library only exists for NEON-class parts.
    features = context.platform_features
    if features:
        return "neon" in features
    return context.platform_vector_width < 8


def _on_cpu(context: SelectionContext) -> bool:
    # BVLC Caffe's CPU path is what the paper compares against; its GPU path
    # *is* cuDNN, emulated separately.
    return "simt" not in context.platform_features


def _on_simt(context: SelectionContext) -> bool:
    return "simt" in context.platform_features


def _pbqp_plan(context: SelectionContext) -> NetworkPlan:
    return PBQPSelector().select(context)


@dataclass(frozen=True)
class Strategy:
    """One way of instantiating a network: a row of :data:`STRATEGIES`.

    Attributes
    ----------
    name:
        Table key, also the plan's ``strategy`` field.
    description:
        One line for ``repro list``.
    build_plan:
        Builds the strategy's plan from an already-profiled context.
    figure_order:
        Position of this strategy's bar in the paper's whole-network figures,
        or ``None`` for strategies that are not a figure bar (the SUM2D
        baseline and the ablation-only strategies).
    is_framework:
        Whether this is an emulated vendor framework (the harnesses allow
        excluding those with ``include_frameworks=False``).
    applies_to:
        Whether the strategy is meaningful for a context's platform (e.g. the
        MKL-DNN emulation only models x86 parts).
    """

    name: str
    description: str
    build_plan: Callable[[SelectionContext], NetworkPlan]
    figure_order: Optional[int] = None
    is_framework: bool = False
    applies_to: Callable[[SelectionContext], bool] = _everywhere


def _family(name: str, family: PrimitiveFamily, what: str, order: int) -> Strategy:
    return Strategy(
        name,
        f"Per-layer greedy over the {what} family.",
        functools.partial(family_greedy_plan, family=family),
        figure_order=order,
    )


#: The table: strategy name -> strategy, in registration order.
STRATEGIES: Dict[str, Strategy] = {
    "sum2d": Strategy(
        "sum2d",
        "SUM2D baseline: every convolution uses the textbook algorithm.",
        sum2d_plan,
    ),
    "direct": _family("direct", PrimitiveFamily.DIRECT, "direct convolution", 0),
    "im2": _family("im2", PrimitiveFamily.IM2, "im2col/im2row", 1),
    "kn2": _family("kn2", PrimitiveFamily.KN2, "kn2col/kn2row", 2),
    "winograd": _family("winograd", PrimitiveFamily.WINOGRAD, "Winograd", 3),
    "fft": _family("fft", PrimitiveFamily.FFT, "FFT", 4),
    "local_optimal": Strategy(
        "local_optimal",
        "Local Optimal (CHW): fastest canonical-layout primitive per layer.",
        local_optimal_plan,
        figure_order=5,
    ),
    "pbqp": Strategy(
        "pbqp",
        "The paper's contribution: globally optimal selection via PBQP.",
        _pbqp_plan,
        figure_order=6,
    ),
    "greedy_ignore_dt": Strategy(
        "greedy_ignore_dt",
        "Ablation: per-layer fastest primitive, layout-conversion costs ignored.",
        greedy_ignore_dt_plan,
    ),
    "mkldnn": Strategy(
        "mkldnn",
        "Intel MKL-DNN emulation: JIT blocked direct convolution.",
        mkldnn_like_plan,
        figure_order=7,
        is_framework=True,
        applies_to=_on_x86,
    ),
    "armcl": Strategy(
        "armcl",
        "ARM Compute Library emulation: NEON GEMM-based convolution.",
        armcl_like_plan,
        figure_order=8,
        is_framework=True,
        applies_to=_on_neon,
    ),
    "caffe": Strategy(
        "caffe",
        "BVLC Caffe emulation: im2col + GEMM in the canonical layout.",
        caffe_like_plan,
        figure_order=9,
        is_framework=True,
        applies_to=_on_cpu,
    ),
    "cudnn": Strategy(
        "cudnn",
        "cuDNN-style emulation: per-layer algorithm pick on a SIMT device.",
        cudnn_like_plan,
        figure_order=10,
        is_framework=True,
        applies_to=_on_simt,
    ),
}


def get_strategy(name: str) -> Strategy:
    """Look up a registered strategy by name."""
    try:
        return STRATEGIES[name]
    except KeyError:
        raise KeyError(
            f"unknown strategy {name!r}; registered strategies: {sorted(STRATEGIES)}"
        ) from None


def registered_names() -> List[str]:
    """Names of all registered strategies, in registration order."""
    return list(STRATEGIES)


def figure_strategy_names() -> List[str]:
    """Registered strategy names in the bar order of the paper's figures."""
    bars = [s for s in STRATEGIES.values() if s.figure_order is not None]
    return [s.name for s in sorted(bars, key=lambda s: s.figure_order)]


def applicable_strategies(
    context: SelectionContext, include_frameworks: bool = True
) -> List[Strategy]:
    """Registered strategies applicable to a context, in registration order."""
    return [
        strategy
        for strategy in STRATEGIES.values()
        if (include_frameworks or not strategy.is_framework)
        and strategy.applies_to(context)
    ]
