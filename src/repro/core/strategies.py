"""The unified strategy registry: every selection strategy behind one interface.

The paper's contribution is a *selection* framework — PBQP against a field of
baseline and vendor-framework strategies.  This module gives that field a
single extensible API: a :class:`Strategy` describes one way of instantiating
a network (``name``, ``applies_to`` gating, ``build_plan``), the
:func:`register_strategy` decorator publishes it in the global
:data:`STRATEGIES` registry, and the experiment harnesses, the CLI and the
:class:`~repro.api.Session` all enumerate the registry instead of importing
strategy functions.  Adding a new strategy is a single decorated class.

Registered strategies (the ten of the paper's figures plus the SUM2D baseline
and the DT-blind greedy ablation):

===================  ============================================================
name                 plan builder
===================  ============================================================
``sum2d``            :func:`repro.core.baselines.sum2d_plan` (the common baseline)
``direct``           per-family greedy over the direct family
``im2``              per-family greedy over the im2col/im2row family
``kn2``              per-family greedy over the kn2col/kn2row family
``winograd``         per-family greedy over the Winograd family
``fft``              per-family greedy over the FFT family
``local_optimal``    :func:`repro.core.baselines.local_optimal_plan`
``pbqp``             :class:`repro.core.selector.PBQPSelector`
``greedy_ignore_dt`` :func:`repro.core.baselines.greedy_ignore_dt_plan`
``mkldnn``           Intel MKL-DNN emulation (``x86`` platforms)
``armcl``            ARM Compute Library emulation (``neon`` platforms)
``caffe``            BVLC Caffe emulation (every CPU platform)
``cudnn``            cuDNN-style emulation (``simt`` / GPU-shaped platforms)
===================  ============================================================

Framework emulations are gated by :attr:`Platform.features` (see
:mod:`repro.cost.platform`), not by hard-coded platform names, so registered
third-party platforms pick up the right comparators by declaring features.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type

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


class Strategy:
    """One way of instantiating a network: the unit of the registry.

    Subclasses set :attr:`name` and implement :meth:`build_plan`;
    :meth:`applies_to` encodes platform gating (e.g. the MKL-DNN emulation
    only models desktop-class SIMD machines) and defaults to "everywhere".

    Attributes
    ----------
    name:
        Registry key, also used as the plan's ``strategy`` field.
    figure_order:
        Position of this strategy's bar in the paper's whole-network figures,
        or ``None`` for strategies that are not a figure bar (the SUM2D
        baseline and the ablation-only strategies).
    is_framework:
        Whether this is an emulated vendor framework (the harnesses allow
        excluding those with ``include_frameworks=False``).
    """

    name: str = ""
    figure_order: Optional[int] = None
    is_framework: bool = False

    def applies_to(self, context: SelectionContext) -> bool:
        """Whether this strategy is meaningful for the context's platform."""
        return True

    def build_plan(self, context: SelectionContext) -> NetworkPlan:
        """Build the strategy's plan from an already-profiled context."""
        raise NotImplementedError

    @property
    def description(self) -> str:
        """One-line human-readable description (first docstring line)."""
        doc = (type(self).__doc__ or "").strip()
        return doc.splitlines()[0] if doc else ""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}(name={self.name!r})"


#: The global registry: strategy name -> strategy instance, in registration order.
STRATEGIES: Dict[str, Strategy] = {}


def register_strategy(cls: Type[Strategy]) -> Type[Strategy]:
    """Class decorator publishing a :class:`Strategy` in :data:`STRATEGIES`."""
    instance = cls()
    if not instance.name:
        raise ValueError(f"strategy class {cls.__name__} must set a non-empty name")
    if instance.name in STRATEGIES:
        raise ValueError(f"duplicate strategy name {instance.name!r}")
    STRATEGIES[instance.name] = instance
    return cls


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


# ---------------------------------------------------------------------------
# Baseline strategies (section 5 of the paper)
# ---------------------------------------------------------------------------


@register_strategy
class Sum2dStrategy(Strategy):
    """SUM2D baseline: every convolution uses the textbook algorithm."""

    name = "sum2d"

    def build_plan(self, context: SelectionContext) -> NetworkPlan:
        return sum2d_plan(context)


class FamilyGreedyStrategy(Strategy):
    """Per-family greedy: fastest family variant per layer when it beats SUM2D."""

    family: PrimitiveFamily

    def build_plan(self, context: SelectionContext) -> NetworkPlan:
        return family_greedy_plan(context, self.family)


@register_strategy
class DirectGreedyStrategy(FamilyGreedyStrategy):
    """Per-layer greedy over the direct convolution family."""

    name = "direct"
    family = PrimitiveFamily.DIRECT
    figure_order = 0


@register_strategy
class Im2GreedyStrategy(FamilyGreedyStrategy):
    """Per-layer greedy over the im2col/im2row family."""

    name = "im2"
    family = PrimitiveFamily.IM2
    figure_order = 1


@register_strategy
class Kn2GreedyStrategy(FamilyGreedyStrategy):
    """Per-layer greedy over the kn2col/kn2row family."""

    name = "kn2"
    family = PrimitiveFamily.KN2
    figure_order = 2


@register_strategy
class WinogradGreedyStrategy(FamilyGreedyStrategy):
    """Per-layer greedy over the Winograd family."""

    name = "winograd"
    family = PrimitiveFamily.WINOGRAD
    figure_order = 3


@register_strategy
class FFTGreedyStrategy(FamilyGreedyStrategy):
    """Per-layer greedy over the FFT family."""

    name = "fft"
    family = PrimitiveFamily.FFT
    figure_order = 4


@register_strategy
class LocalOptimalStrategy(Strategy):
    """Local Optimal (CHW): fastest canonical-layout primitive per layer."""

    name = "local_optimal"
    figure_order = 5

    def build_plan(self, context: SelectionContext) -> NetworkPlan:
        return local_optimal_plan(context)


@register_strategy
class PBQPStrategy(Strategy):
    """The paper's contribution: globally optimal selection via PBQP."""

    name = "pbqp"
    figure_order = 6

    def build_plan(self, context: SelectionContext) -> NetworkPlan:
        return PBQPSelector().select(context)


@register_strategy
class GreedyIgnoreDTStrategy(Strategy):
    """Ablation: per-layer fastest primitive, layout-conversion costs ignored."""

    name = "greedy_ignore_dt"

    def build_plan(self, context: SelectionContext) -> NetworkPlan:
        return greedy_ignore_dt_plan(context)


# ---------------------------------------------------------------------------
# Emulated vendor frameworks (platform-gated)
# ---------------------------------------------------------------------------


@register_strategy
class MKLDNNStrategy(Strategy):
    """Intel MKL-DNN emulation: JIT blocked direct convolution."""

    name = "mkldnn"
    figure_order = 7
    is_framework = True

    def applies_to(self, context: SelectionContext) -> bool:
        # MKL-DNN exists for x86 parts (AVX2 desktop and AVX-512 server
        # alike).  Feature-less contexts (hand-built platforms, the host
        # profiler) fall back to the historical wide-SIMD heuristic.
        features = context.platform_features
        if features:
            return "x86" in features
        return context.platform_vector_width >= 8

    def build_plan(self, context: SelectionContext) -> NetworkPlan:
        return mkldnn_like_plan(context)


@register_strategy
class ARMCLStrategy(Strategy):
    """ARM Compute Library emulation: NEON GEMM-based convolution."""

    name = "armcl"
    figure_order = 8
    is_framework = True

    def applies_to(self, context: SelectionContext) -> bool:
        # The ARM Compute Library only exists for NEON-class parts.
        features = context.platform_features
        if features:
            return "neon" in features
        return context.platform_vector_width < 8

    def build_plan(self, context: SelectionContext) -> NetworkPlan:
        return armcl_like_plan(context)


@register_strategy
class CaffeStrategy(Strategy):
    """BVLC Caffe emulation: im2col + GEMM in the canonical layout."""

    name = "caffe"
    figure_order = 9
    is_framework = True

    def applies_to(self, context: SelectionContext) -> bool:
        # CPU-only: BVLC Caffe's CPU path is what the paper compares against
        # (its GPU path *is* cuDNN, emulated separately below).
        return "simt" not in context.platform_features

    def build_plan(self, context: SelectionContext) -> NetworkPlan:
        return caffe_like_plan(context)


@register_strategy
class CudnnStrategy(Strategy):
    """cuDNN-style emulation: per-layer algorithm pick on a SIMT device."""

    name = "cudnn"
    figure_order = 10
    is_framework = True

    def applies_to(self, context: SelectionContext) -> bool:
        # cuDNN only exists for GPU-shaped (SIMT) platforms.
        return "simt" in context.platform_features

    def build_plan(self, context: SelectionContext) -> NetworkPlan:
        return cudnn_like_plan(context)
