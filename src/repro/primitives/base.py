"""Base classes for DNN convolution primitives.

A *primitive* is one concrete routine implementing DNN convolution.  The
paper models a primitive as the 3-tuple ``{L_in, P, L_out}`` — input layout,
primitive identifier, output layout (section 3): a primitive only accepts
inputs in its declared layout and only produces outputs in its declared
layout, and connecting two primitives whose layouts disagree requires a data
layout transformation.

Every primitive here is *functionally executable*: :meth:`ConvPrimitive.execute`
computes a numerically correct convolution on numpy tensors, which the test
suite verifies against the reference implementation.  In addition, each
primitive exposes the quantities the analytical platform model prices —
arithmetic operation count, memory traffic and workspace footprint — which is
how the reproduction substitutes for wall-clock profiling of hand-tuned
C/assembly kernels on the paper's two hardware platforms (see
:mod:`repro.cost.analytical`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, FrozenSet, Iterable, NamedTuple, Optional, Tuple

import numpy as np

from repro.graph.scenario import DTYPES, ConvScenario
from repro.layouts.layout import CHW, Layout
from repro.layouts.tensor import LayoutTensor, fp16_round_trip, quantize_symmetric

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.cost.platform import Platform


class UnsupportedScenarioError(ValueError):
    """Raised when a primitive is executed on a scenario it does not support."""


class PrimitiveFamily(str, enum.Enum):
    """The six convolution algorithm families of section 4 of the paper."""

    SUM2D = "sum2d"
    DIRECT = "direct"
    IM2 = "im2"
    KN2 = "kn2"
    WINOGRAD = "winograd"
    FFT = "fft"


@dataclass(frozen=True)
class PrimitiveTraits:
    """Static, platform-independent characteristics used by the cost model.

    Attributes
    ----------
    gemm_fraction:
        Fraction of the arithmetic performed inside large, regular GEMM-like
        kernels (which achieve high fractions of machine peak) as opposed to
        irregular scalar code.
    locality:
        A [0, 1] score describing the spatial/temporal locality of the
        memory access pattern of the non-GEMM portion of the algorithm.
    parallel_efficiency:
        Fraction of ideal speedup achieved under multithreaded execution.
    per_call_overhead_ops:
        Fixed overhead (scheduling, buffer management, transform setup)
        expressed in scalar-operation equivalents, charged once per layer
        invocation.  Penalizes algorithms that are expensive to set up on
        tiny layers (e.g. FFT plans, Winograd transforms on 1x1-sized work).
    """

    gemm_fraction: float
    locality: float
    parallel_efficiency: float
    per_call_overhead_ops: float = 0.0


class PricingRow(NamedTuple):
    """The scenario-independent inputs of the analytical cost formula.

    One row per primitive (:attr:`ConvPrimitive.pricing_row`): its traits,
    vector factor, family flags and input-layout flags.
    :meth:`AnalyticalCostModel.price_layers
    <repro.cost.analytical.AnalyticalCostModel.price_layers>` stacks the rows
    of every priced primitive into one array and reads its columns through
    this tuple's field names.
    """

    gemm_fraction: float
    locality: float
    parallel_efficiency: float
    per_call_overhead_ops: float
    vector_factor: float
    #: Direct or sum2d: a plain loop nest rather than a GEMM/transform kernel.
    plain_loops: bool
    winograd: bool
    kn2: bool
    im2: bool
    #: The input layout's innermost dimension is the channel.
    channel_minor: bool
    #: The input layout is channel-blocked ...
    blocked: bool
    #: ... by this many channels (1 when unblocked).
    channel_block: float


class ConvPrimitive:
    """Abstract base class for convolution primitives.

    Parameters
    ----------
    name:
        Unique primitive identifier, e.g. ``"winograd_2d_m2_r3_vf8"``.
    family:
        The algorithm family (section 4 of the paper).
    input_layout, output_layout:
        The layouts consumed and produced.  An edge between two primitives is
        legal iff the producer's output layout equals the consumer's input
        layout; otherwise the legalizer must insert transformations.
    vector_factor:
        The SIMD width (FP32 lanes) the variant is written for: 1 (scalar),
        4 (NEON) or 8 (AVX2).  A variant whose vector factor exceeds the
        platform's native width is heavily penalized by the cost model,
        which is how the selector ends up picking VF8 variants on Haswell and
        VF4 variants on Cortex-A57 (Figure 4 of the paper).
    requires_features, excluded_features:
        Per-platform gating: when :meth:`supports` is asked about a concrete
        :class:`~repro.cost.platform.Platform`, the primitive declines
        platforms missing any required feature or exhibiting any excluded
        one (e.g. the row-streaming 1D Winograd/FFT forms do not exist on
        ``simt`` machines).  Both default to empty — available everywhere.
    supported_dtypes:
        The numeric precisions this routine implements.  Defaults to all of
        them; families whose algorithm cannot run below fp32 restrict the
        set, either per instance (this argument) or for a whole family with
        a class-level ``supported_dtypes`` declaration (FFT declines int8 —
        the spectral domain stays float — see
        :class:`~repro.primitives.fft._FFTBase`).  :meth:`supports` declines
        any scenario whose dtype is not in the set, so cost tables never
        price an impossible (primitive, precision) pairing.
    """

    #: Class-level default; subclasses may narrow it for the whole family.
    supported_dtypes: FrozenSet[str] = frozenset(DTYPES)

    def __init__(
        self,
        name: str,
        family: PrimitiveFamily,
        input_layout: Layout = CHW,
        output_layout: Layout = CHW,
        vector_factor: int = 1,
        requires_features: Iterable[str] = (),
        excluded_features: Iterable[str] = (),
        supported_dtypes: Optional[Iterable[str]] = None,
    ) -> None:
        if vector_factor < 1:
            raise ValueError("vector_factor must be >= 1")
        self.name = name
        self.family = family
        self.input_layout = input_layout
        self.output_layout = output_layout
        self.vector_factor = vector_factor
        self.requires_features: FrozenSet[str] = frozenset(requires_features)
        self.excluded_features: FrozenSet[str] = frozenset(excluded_features)
        if supported_dtypes is not None:
            # An explicit argument narrows (or widens) the class declaration.
            self.supported_dtypes = frozenset(supported_dtypes)
        unknown = self.supported_dtypes - set(DTYPES)
        if unknown:
            raise ValueError(f"unknown dtypes {sorted(unknown)}; valid: {DTYPES}")

    # -- capability -------------------------------------------------------------

    def supports(
        self, scenario: ConvScenario, platform: Optional["Platform"] = None
    ) -> bool:
        """Whether this primitive can implement the scenario on the platform.

        ``platform=None`` asks the platform-independent question ("can this
        routine compute the convolution at all?" — what :meth:`execute`
        checks); passing a platform additionally applies the capability
        gating of :attr:`requires_features` / :attr:`excluded_features`, so
        cost tables never price a variant the platform does not offer.
        The scenario's dtype is part of the platform-independent question:
        a routine that does not implement the precision declines outright.
        """
        return self.supports_dtype(scenario.dtype) and self.available_on(platform)

    def supports_dtype(self, dtype: str) -> bool:
        """Whether this routine has a compute path at the given precision."""
        return dtype in self.supported_dtypes

    def available_on(self, platform: Optional["Platform"]) -> bool:
        """Whether this primitive exists at all on the given platform."""
        if platform is None:
            return True
        if not self.requires_features <= platform.features:
            return False
        return not (self.excluded_features & platform.features)

    def traits(self) -> PrimitiveTraits:
        """Platform-independent characteristics priced by the cost model."""
        raise NotImplementedError

    @cached_property
    def pricing_row(self) -> np.ndarray:
        """The static row of the cost formula, as floats in :class:`PricingRow`
        order (flags are 0 or 1).

        Traits, family and layouts never change after construction, so the
        row is built once per primitive rather than once per priced layer.
        """
        traits = self.traits()
        family = self.family
        layout = self.input_layout
        row = PricingRow(
            gemm_fraction=traits.gemm_fraction,
            locality=traits.locality,
            parallel_efficiency=traits.parallel_efficiency,
            per_call_overhead_ops=traits.per_call_overhead_ops,
            vector_factor=self.vector_factor,
            plain_loops=family is PrimitiveFamily.DIRECT or family is PrimitiveFamily.SUM2D,
            winograd=family is PrimitiveFamily.WINOGRAD,
            kn2=family is PrimitiveFamily.KN2,
            im2=family is PrimitiveFamily.IM2,
            channel_minor=layout.order[-1] == "C",
            blocked=layout.is_blocked,
            channel_block=layout.channel_block or 1,
        )
        array = np.array(row, dtype=float)
        array.flags.writeable = False
        return array

    # -- work estimates ------------------------------------------------------------

    def arithmetic_ops(self, scenario: ConvScenario) -> float:
        """Floating-point operations actually executed by this algorithm.

        Direct, im2 and kn2 algorithms all perform the textbook operation
        count; fast algorithms (Winograd) perform fewer multiplications and
        FFT-based convolution has an asymptotically different count.
        """
        return float(scenario.flops())

    def workspace_elements(self, scenario: ConvScenario) -> float:
        """Extra scratch elements allocated beyond input, kernel and output.

        This is the *per-image* scratch footprint: batched execution streams
        the images of a minibatch through the same buffers, so the allocation
        does not grow with the batch (the traffic through it does).
        """
        return 0.0

    def inner_working_set_elements(self, scenario: ConvScenario) -> float:
        """Elements the innermost kernel needs resident in the per-core cache.

        Zero (the default) means the algorithm's inner loops are blocked to
        fit any reasonable cache (GEMM-based algorithms tile their operands by
        construction).  Algorithms whose inner stage must keep a structurally
        determined working set live — such as the per-tile transformed-domain
        buffers of 2D Winograd — report it here, and the cost model penalizes
        variants whose inner working set overflows the per-core cache.  This
        is the mechanism behind the paper's observation that the low-memory
        1D Winograd form wins on the small-cache Cortex-A57 while the
        operation-minimal 2D form wins on the Haswell part (Figure 4).
        """
        return 0.0

    # -- execution ---------------------------------------------------------------

    def execute(
        self,
        tensor: LayoutTensor,
        kernel: np.ndarray,
        scenario: ConvScenario,
    ) -> LayoutTensor:
        """Run the primitive.

        ``tensor`` must be stored in :attr:`input_layout`; the kernel is a
        ``(M, C/groups, K, K)`` array shared by every image of the batch; the
        result is produced in :attr:`output_layout`.  A batched scenario
        requires a batched tensor of the same batch size and vice versa.
        """
        if not self.supports(scenario):
            raise UnsupportedScenarioError(
                f"{self.name} does not support scenario [{scenario.describe()}]"
            )
        if tensor.layout != self.input_layout:
            raise UnsupportedScenarioError(
                f"{self.name} expects layout {self.input_layout.name}, "
                f"got {tensor.layout.name}"
            )
        if tensor.logical_shape != scenario.input_shape:
            raise ValueError(
                f"input tensor shape {tensor.logical_shape} does not match "
                f"scenario input shape {scenario.input_shape}"
            )
        kernel = np.asarray(kernel)
        if kernel.shape != scenario.kernel_shape:
            raise ValueError(
                f"kernel shape {kernel.shape} does not match scenario kernel "
                f"shape {scenario.kernel_shape}"
            )
        out_dtype = tensor.dtype if tensor.dtype.kind == "f" else np.float32
        if tensor.batch is not None:
            if tensor.batch != scenario.batch:
                raise ValueError(
                    f"input tensor batch {tensor.batch} does not match "
                    f"scenario batch {scenario.batch}"
                )
            out_nchw = self._run_precision(
                tensor.to_nchw(), kernel, scenario,
                lambda x, k: self._run_batched(x, k, scenario.per_image),
            )
            expected_batched = scenario.batched_output_shape
            if out_nchw.shape != expected_batched:
                raise RuntimeError(
                    f"{self.name} produced shape {out_nchw.shape}, expected {expected_batched}"
                )
            return LayoutTensor.from_nchw(
                out_nchw.astype(out_dtype, copy=False), self.output_layout
            )
        if scenario.batch != 1:
            raise ValueError(
                f"scenario has batch {scenario.batch} but the input tensor is "
                "not batched; build it with LayoutTensor.from_nchw"
            )
        out_chw = self._run_precision(
            tensor.to_chw(), kernel, scenario,
            lambda x, k: self._run_grouped(x, k, scenario),
        )
        expected = scenario.output_shape
        if out_chw.shape != expected:
            raise RuntimeError(
                f"{self.name} produced shape {out_chw.shape}, expected {expected}"
            )
        return LayoutTensor.from_chw(out_chw.astype(out_dtype, copy=False), self.output_layout)

    # -- helpers for subclasses ----------------------------------------------------

    def _run_precision(self, x, kernel, scenario: ConvScenario, run) -> np.ndarray:
        """Dispatch the convolution at the scenario's precision.

        Every family's ``_compute`` path is value-polymorphic (it accumulates
        in float64), so reduced precision is applied at the operand level —
        exactly how the quantized kernels it models work:

        * ``fp16``: operands are rounded to half precision, accumulation
          stays wide (fp16 FMA units accumulate in fp32).
        * ``int8``: symmetric per-tensor quantization of activations and
          weights; the integer-valued products are accumulated exactly (an
          int32 accumulator — float64 holds integer sums below 2**53 without
          rounding), then rescaled by the two tensor scales.  Transform
          families (Winograd) run their fractional transforms over the
          quantized operands, which is where their extra modelled accuracy
          loss comes from.
        """
        if scenario.dtype == "fp16":
            return run(fp16_round_trip(x), fp16_round_trip(kernel))
        if scenario.dtype == "int8":
            qx, x_scale = quantize_symmetric(x)
            qk, k_scale = quantize_symmetric(kernel)
            acc = run(qx.astype(np.float64), qk.astype(np.float64))
            return acc * (x_scale * k_scale)
        return run(x, kernel)

    def _run_batched(
        self, x_nchw: np.ndarray, kernel: np.ndarray, scenario: ConvScenario
    ) -> np.ndarray:
        """Compute a batched convolution; ``scenario`` is the per-image scenario.

        Ungrouped scenarios first try the family's vectorized
        :meth:`_compute_batch` path; everything else (and families without
        one) falls back to a per-image loop over :meth:`_run_grouped`, which
        is correct for every family but pays Python-loop overhead once per
        image.  The whole-batch input is only padded when the family actually
        overrides the fast path — the fallback pads per image.
        """
        has_fast_path = type(self)._compute_batch is not ConvPrimitive._compute_batch
        if scenario.groups == 1 and has_fast_path:
            padded, inner = _pad_scenario(x_nchw, scenario)
            fast = self._compute_batch(padded, kernel, inner)
            if fast is not None:
                return fast
        return np.stack(
            [self._run_grouped(x_nchw[i], kernel, scenario) for i in range(x_nchw.shape[0])]
        )

    def _compute_batch(
        self, x_nchw: np.ndarray, kernel: np.ndarray, scenario: ConvScenario
    ) -> Optional[np.ndarray]:
        """Optional vectorized path over the batch axis.

        ``x_nchw`` is already padded and ``scenario`` is the per-image
        scenario with ``padding=0`` and ``groups=1``.  Families whose loop
        structure vectorizes naturally across images override this to return
        the ``(N, M, out_H, out_W)`` result; the ``None`` default falls back
        to the per-image loop.
        """
        return None

    def _run_grouped(
        self, x_chw: np.ndarray, kernel: np.ndarray, scenario: ConvScenario
    ) -> np.ndarray:
        """Handle padding and grouped convolution, delegating per-group work."""
        padded, inner = _pad_scenario(x_chw, scenario)
        if scenario.groups == 1:
            return self._compute(padded, kernel, inner)
        if inner.is_depthwise and inner.m == inner.c:
            fast = self._compute_depthwise(padded, kernel, inner)
            if fast is not None:
                return fast
        group_c = scenario.c // scenario.groups
        group_m = scenario.m // scenario.groups
        sub_scenario = ConvScenario(
            c=group_c,
            h=inner.h,
            w=inner.w,
            stride=inner.stride,
            k=inner.k,
            m=group_m,
            padding=0,
            groups=1,
            dtype=inner.dtype,
        )
        outputs = []
        for g in range(scenario.groups):
            x_group = padded[g * group_c : (g + 1) * group_c]
            k_group = kernel[g * group_m : (g + 1) * group_m]
            outputs.append(self._compute(x_group, k_group, sub_scenario))
        return np.concatenate(outputs, axis=0)

    def _compute_depthwise(
        self, x_chw: np.ndarray, kernel: np.ndarray, scenario: ConvScenario
    ) -> Optional[np.ndarray]:
        """Optional batched path for depthwise scenarios (``groups == c == m``).

        ``x_chw`` is already padded, ``scenario`` has ``padding=0`` and the
        kernel has shape ``(C, 1, K, K)``.  Families whose loop structure
        vectorizes naturally across channels override this; the ``None``
        default falls back to the generic per-group loop, which is correct for
        every family but pays Python-loop overhead once per channel.
        """
        return None

    def _compute(
        self, x_chw: np.ndarray, kernel: np.ndarray, scenario: ConvScenario
    ) -> np.ndarray:
        """Compute a single-group, already-padded convolution in CHW space.

        ``scenario`` has ``padding=0`` and ``groups=1``; ``x_chw`` has shape
        ``scenario.input_shape`` and the kernel ``scenario.kernel_shape``.
        Subclasses implement their algorithm here.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"{self.input_layout.name}->{self.output_layout.name}, vf={self.vector_factor})"
        )


def depthwise_shifted_accumulation(
    x_chw: np.ndarray, kernel: np.ndarray, scenario: ConvScenario
) -> np.ndarray:
    """Depthwise convolution by shifted-window accumulation over all channels.

    The common loop structure of the direct/sum2d depthwise paths: no channel
    reduction, one scaled window accumulation per kernel offset, vectorized
    across every feature map at once.  ``x_chw`` is already padded,
    ``scenario`` has ``padding=0`` and ``groups == c == m``; the kernel has
    shape ``(C, 1, K, K)``.
    """
    stride, k = scenario.stride, scenario.k
    out_h, out_w = scenario.out_h, scenario.out_w
    x64 = x_chw.astype(np.float64, copy=False)
    kernel64 = kernel.astype(np.float64, copy=False)
    out = np.zeros(scenario.output_shape, dtype=np.float64)
    for kh in range(k):
        for kw in range(k):
            window = x64[
                :,
                kh : kh + (out_h - 1) * stride + 1 : stride,
                kw : kw + (out_w - 1) * stride + 1 : stride,
            ]
            out += kernel64[:, 0, kh, kw][:, None, None] * window
    return out


def _pad_scenario(
    x: np.ndarray, scenario: ConvScenario
) -> Tuple[np.ndarray, ConvScenario]:
    """Zero-pad the spatial axes and return the equivalent padding-free scenario.

    Works on a single ``(C, H, W)`` image or a batched ``(N, C, H, W)``
    tensor: only the trailing two (spatial) axes are padded.
    """
    if scenario.padding == 0:
        return x, scenario
    pad = scenario.padding
    widths = ((0, 0),) * (x.ndim - 2) + ((pad, pad), (pad, pad))
    padded = np.pad(x, widths, mode="constant")
    inner = replace(
        scenario, h=scenario.h + 2 * pad, w=scenario.w + 2 * pad, padding=0
    )
    return padded, inner
