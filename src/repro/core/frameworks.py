"""Emulated vendor-framework comparators (Caffe, MKL-DNN, ARM Compute Library, cuDNN).

The paper compares its PBQP-selected networks against BVLC Caffe (with
OpenBLAS) on both platforms, Intel MKL-DNN on the desktop platform, and the
ARM Compute Library on the embedded platform.  Those closed/pre-built
frameworks cannot be run inside this reproduction, so each is **modelled as a
fixed selection policy over the same analytical platform model**, with a small
number of calibration constants capturing the framework-level behaviour the
paper's measurements exhibit (Tables 2 and 3, Figures 5-7):

* **Caffe** lowers every convolution to im2col + a canonical-layout GEMM and
  pays a per-layer framework overhead (buffer allocation, thread-pool spinup)
  that is painful on networks with many small layers — which is how Caffe
  ends up *slower than the SUM2D baseline* for GoogLeNet on the Cortex-A57 in
  the paper's Table 3.
* **MKL-DNN** JIT-generates blocked-layout direct convolutions of very high
  single-thread quality, but in the paper's measurements scales noticeably
  worse than the PBQP-selected code under multithreading (Figure 6).
* **ARM Compute Library** uses NEON GEMM-based convolution of good quality
  with moderate per-layer overhead.
* **cuDNN** (post-paper, for SIMT platforms) picks per layer among GEMM,
  Winograd and FFT algorithms, blind to layout-conversion edges.

These comparators deliberately do not use the PBQP machinery: each applies
one uniform lowering to every layer, exactly like the real frameworks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.legalize import finalize_plan, fixed_layouts, follow_producer_layouts
from repro.core.plan import NetworkPlan
from repro.core.selector import SelectionContext
from repro.layouts.layout import CHW


@dataclass(frozen=True)
class FrameworkModel:
    """Calibration constants of one emulated framework."""

    name: str
    #: Multiplier on the modelled primitive cost (framework code quality
    #: relative to the reproduction's primitives; < 1 means better).
    efficiency_factor: float
    #: Fixed per-convolution-layer overhead in milliseconds (dispatch,
    #: buffer allocation, thread spin-up).
    per_layer_overhead_ms: float
    #: Parallel efficiency under multithreading (fraction of ideal speedup).
    parallel_efficiency: float


#: Caffe + OpenBLAS: im2col/GEMM in the canonical layout with heavy per-layer overhead.
#: The per-layer overhead is platform dependent and charged for *every* layer
#: Caffe executes (convolution, ReLU, LRN, pooling are all separate layers
#: with their own buffer management); see :func:`caffe_like_plan`.
CAFFE_MODEL = FrameworkModel(
    name="caffe", efficiency_factor=1.60, per_layer_overhead_ms=0.0, parallel_efficiency=0.55
)
#: Intel MKL-DNN: JIT blocked direct convolution, excellent single-thread quality
#: (noticeably better than the reproduction's GEMM-based primitives) but with
#: the weaker multithreaded scaling the paper observes in Figure 6.
MKLDNN_MODEL = FrameworkModel(
    name="mkldnn", efficiency_factor=0.60, per_layer_overhead_ms=0.05, parallel_efficiency=0.55
)
#: ARM Compute Library: NEON GEMM-based convolution.
ARMCL_MODEL = FrameworkModel(
    name="armcl", efficiency_factor=1.05, per_layer_overhead_ms=0.6, parallel_efficiency=0.60
)
#: cuDNN: hand-tuned SIMT kernels with a per-layer heuristic algorithm pick
#: (implicit GEMM / Winograd / FFT).  Kernel quality is well above the
#: reproduction's primitives, but the per-layer dispatch (descriptor setup,
#: workspace query, kernel launch) is charged on every convolution — small
#: layers stay launch-bound, which is where whole-graph selection wins.
CUDNN_MODEL = FrameworkModel(
    name="cudnn", efficiency_factor=0.70, per_layer_overhead_ms=0.03, parallel_efficiency=0.90
)


def _framework_plan(
    context: SelectionContext,
    model: FrameworkModel,
    conv_primitives: Dict[str, str],
    canonical_layout: bool,
    overhead_layer_count: int | None = None,
) -> NetworkPlan:
    """Build a plan for an emulated framework and rescale its layer costs.

    ``overhead_layer_count`` is the number of layers the framework charges its
    per-layer overhead for; it defaults to the number of convolution layers,
    but Caffe-style frameworks execute *every* layer (activation, LRN,
    pooling, ...) as a separately dispatched operation.  The total overhead is
    spread evenly over the convolution-layer decisions so plan cost accounting
    stays uniform.
    """
    if canonical_layout:
        wildcard = fixed_layouts(context, CHW)
    else:
        wildcard = follow_producer_layouts(context, conv_primitives)
    plan = finalize_plan(context, model.name, conv_primitives, wildcard)

    threads = context.threads
    conv_count = max(len(conv_primitives), 1)
    charged_layers = overhead_layer_count if overhead_layer_count is not None else conv_count
    overhead_seconds = model.per_layer_overhead_ms * 1e-3 * charged_layers / conv_count
    for decision in plan.layer_decisions.values():
        if decision.primitive is None:
            continue
        cost = decision.cost * model.efficiency_factor
        if threads > 1:
            # The underlying cost tables already include the reproduction's
            # multithreaded scaling; adjust to the framework's poorer scaling
            # by re-deriving from the single-thread cost of the same primitive.
            single = context.tables_single_thread.primitive_cost(
                decision.layer, decision.primitive
            )
            cost = (
                single
                * model.efficiency_factor
                / (1.0 + (threads - 1) * model.parallel_efficiency)
            )
        decision.cost = cost + overhead_seconds
        decision.note = f"emulated {model.name}"
    plan.metadata["framework_model"] = model
    return plan


def _best_of_families(context: SelectionContext, layer_name: str, prefixes) -> str:
    """Fastest primitive for a layer among those whose name starts with a prefix."""
    costs = context.tables.node_costs[layer_name]
    candidates = {
        name: cost
        for name, cost in costs.items()
        if any(name.startswith(prefix) for prefix in prefixes)
    }
    if not candidates:
        return "sum2d"
    return min(candidates, key=candidates.get)


def caffe_like_plan(context: SelectionContext) -> NetworkPlan:
    """Emulate BVLC Caffe: im2col + GEMM in the canonical CHW layout everywhere.

    The per-layer framework overhead is taken from the platform description
    (Caffe's repeated column-buffer allocation and OpenBLAS thread spin-up are
    far more painful on the embedded platform), which is what reproduces the
    paper's observation that Caffe is slower than the SUM2D baseline for
    GoogLeNet on the Cortex-A57 (Table 3).
    """
    width = 8 if context.platform_vector_width >= 8 else 4
    conv_primitives = {
        layer.name: _best_of_families(context, layer.name, (f"im2col_vf{width}", "im2col_vf"))
        for layer in context.network.conv_layers()
    }
    overhead = (
        context.platform.framework_overhead_ms if context.platform is not None else 0.5
    )
    model = FrameworkModel(
        name=CAFFE_MODEL.name,
        efficiency_factor=CAFFE_MODEL.efficiency_factor,
        per_layer_overhead_ms=overhead,
        parallel_efficiency=CAFFE_MODEL.parallel_efficiency,
    )
    return _framework_plan(
        context,
        model,
        conv_primitives,
        canonical_layout=True,
        overhead_layer_count=len(context.network),
    )


def mkldnn_like_plan(context: SelectionContext) -> NetworkPlan:
    """Emulate Intel MKL-DNN: JIT blocked-layout direct/GEMM convolution."""
    conv_primitives = {
        layer.name: _best_of_families(
            context, layer.name, ("direct_mhwc_t8_vf8", "direct_hwmc_t8_vf8", "im2col_vf8")
        )
        for layer in context.network.conv_layers()
    }
    return _framework_plan(context, MKLDNN_MODEL, conv_primitives, canonical_layout=False)


def armcl_like_plan(context: SelectionContext) -> NetworkPlan:
    """Emulate the ARM Compute Library: NEON GEMM-based convolution."""
    conv_primitives = {
        layer.name: _best_of_families(context, layer.name, ("im2row_vf4", "im2col_vf4"))
        for layer in context.network.conv_layers()
    }
    return _framework_plan(context, ARMCL_MODEL, conv_primitives, canonical_layout=False)


def cudnn_like_plan(context: SelectionContext) -> NetworkPlan:
    """Emulate cuDNN: per-layer heuristic pick among its algorithm menu.

    cuDNN chooses per layer among implicit/explicit GEMM, tiled Winograd and
    2D FFT — a *local* per-layer pick, blind to the layout-conversion edges,
    exactly like the other framework comparators.  The 1D (row-streaming)
    Winograd/FFT forms are not in the menu: they have no SIMT kernels (and
    are declined by the primitives' platform gating anyway).
    """
    conv_primitives = {
        layer.name: _best_of_families(
            context, layer.name, ("im2col", "im2row", "winograd_2d", "fft_2d")
        )
        for layer in context.network.conv_layers()
    }
    return _framework_plan(context, CUDNN_MODEL, conv_primitives, canonical_layout=False)
