"""Convolutional scenarios.

Section 3 of the paper models a convolutional layer instance formally as the
6-tuple ``{C, H, W, delta, K, M}``: the number of input feature maps, the
input height and width, the stride, the kernel radix and the number of output
feature maps.  The paper's evaluation is latency sensitive (batch size 1) but
notes that minibatching is just one more integer parameter; this reproduction
threads that parameter — ``batch`` — through the whole system, so selections
can be studied as a function of batch size.

:class:`ConvScenario` is that tuple, extended with the three extra attributes
needed to describe the public models exactly and to open the batching axis —
``padding``, ``groups`` and ``batch``.  ``padding`` and ``groups`` do not
change the structure of the selection problem (they only scale the amount of
work); ``batch`` multiplies the per-image work exactly: all geometry
(``out_h``/``out_w``, shapes) stays per-image, so a batch of ``n`` images
costs precisely ``n`` times one image — no convolution windows, padding or
Winograd tiles ever bleed across image boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

#: The numeric precisions a scenario can request, in decreasing width.
DTYPES: Tuple[str, ...] = ("fp32", "fp16", "int8")

#: Bytes per element of each precision (what the memory system moves).
DTYPE_ITEMSIZE = {"fp32": 4, "fp16": 2, "int8": 1}


@dataclass(frozen=True)
class ConvScenario:
    """The parameters of one DNN convolution instance.

    Attributes
    ----------
    c:
        Number of input feature maps (channels).
    h, w:
        Height and width of each input feature map.
    stride:
        Convolution stride (``delta`` in the paper), applied in both spatial
        dimensions.
    k:
        Kernel radix; kernels are ``k x k``.
    m:
        Number of output feature maps (number of multichannel filters).
    padding:
        Symmetric zero padding applied to both spatial dimensions.
    groups:
        Grouped convolution factor (AlexNet's conv2/4/5 use ``groups=2``).
        ``c`` and ``m`` must both be divisible by ``groups``.
    batch:
        Number of images processed per invocation (minibatch size).  Geometry
        stays per-image; work totals (:meth:`macs`, :meth:`input_elements`,
        :meth:`output_elements`) scale exactly linearly in ``batch`` while the
        kernel is shared across the whole batch.
    dtype:
        Numeric precision of the activations and weights: ``"fp32"`` (the
        paper's setting), ``"fp16"`` or ``"int8"``.  Like ``batch`` it does
        not change geometry — element counts are identical — but it changes
        the bytes the memory system moves, the SIMD lanes a vector unit
        packs, which primitives apply (FFT stays in the float spectral
        domain) and the modelled accuracy of the result.
    out_h, out_w:
        Output feature-map height and width (per image), derived once at
        construction; not fields, so they take no part in equality, hashing
        or :func:`dataclasses.replace`.
    """

    c: int
    h: int
    w: int
    stride: int = 1
    k: int = 3
    m: int = 1
    padding: int = 0
    groups: int = 1
    batch: int = 1
    dtype: str = "fp32"

    def __post_init__(self) -> None:
        for field_name in ("c", "h", "w", "stride", "k", "m", "groups", "batch"):
            value = getattr(self, field_name)
            if value < 1:
                raise ValueError(f"{field_name} must be >= 1, got {value}")
        if self.padding < 0:
            raise ValueError(f"padding must be >= 0, got {self.padding}")
        if self.c % self.groups or self.m % self.groups:
            raise ValueError(
                f"c ({self.c}) and m ({self.m}) must be divisible by groups ({self.groups})"
            )
        if self.k > self.h + 2 * self.padding or self.k > self.w + 2 * self.padding:
            raise ValueError(
                "kernel does not fit in the padded input: "
                f"k={self.k}, padded input {self.h + 2 * self.padding}x{self.w + 2 * self.padding}"
            )
        if self.dtype not in DTYPES:
            raise ValueError(
                f"dtype must be one of {DTYPES}, got {self.dtype!r}"
            )
        # The output geometry, derived once: every work estimate reads it.
        object.__setattr__(self, "out_h", (self.h + 2 * self.padding - self.k) // self.stride + 1)
        object.__setattr__(self, "out_w", (self.w + 2 * self.padding - self.k) // self.stride + 1)

    # -- derived geometry ----------------------------------------------------

    @property
    def input_shape(self) -> Tuple[int, int, int]:
        """Logical per-image input tensor shape ``(C, H, W)``."""
        return (self.c, self.h, self.w)

    @property
    def output_shape(self) -> Tuple[int, int, int]:
        """Logical per-image output tensor shape ``(M, out_H, out_W)``."""
        return (self.m, self.out_h, self.out_w)

    @property
    def batched_input_shape(self) -> Tuple[int, int, int, int]:
        """Logical batched input tensor shape ``(N, C, H, W)``."""
        return (self.batch,) + self.input_shape

    @property
    def batched_output_shape(self) -> Tuple[int, int, int, int]:
        """Logical batched output tensor shape ``(N, M, out_H, out_W)``."""
        return (self.batch,) + self.output_shape

    @property
    def kernel_shape(self) -> Tuple[int, int, int, int]:
        """Kernel tensor shape ``(M, C/groups, K, K)`` (shared by the batch)."""
        return (self.m, self.c // self.groups, self.k, self.k)

    @property
    def is_strided(self) -> bool:
        """Whether the convolution has stride greater than one."""
        return self.stride > 1

    @property
    def is_pointwise(self) -> bool:
        """Whether this is a 1x1 convolution."""
        return self.k == 1

    @property
    def is_grouped(self) -> bool:
        """Whether the channels are partitioned into more than one group."""
        return self.groups > 1

    @property
    def is_batched(self) -> bool:
        """Whether more than one image is processed per invocation."""
        return self.batch > 1

    @property
    def is_depthwise(self) -> bool:
        """Whether this is a depthwise convolution (one input channel per group).

        MobileNet-style depthwise-separable blocks use ``groups == C`` so each
        filter sees a single input feature map.  Several primitive families
        degenerate on this shape (their channel-reduction GEMM collapses to
        scalar work) and must *decline* such scenarios rather than miscost
        them.
        """
        return self.groups > 1 and self.groups == self.c

    # -- work estimates -------------------------------------------------------

    def macs(self) -> int:
        """Multiply-accumulate count of the textbook direct convolution.

        ``batch * O(outH * outW * (C/groups) * K^2 * M)`` per the paper's
        complexity statement (section 2.1), accounting for stride, grouping
        and minibatching.  A batch of ``n`` images costs exactly ``n`` times
        one image.
        """
        per_group_c = self.c // self.groups
        per_image = self.out_h * self.out_w * per_group_c * self.k * self.k * self.m
        return self.batch * per_image

    def flops(self) -> int:
        """Floating point operations (2 per MAC)."""
        return 2 * self.macs()

    def input_elements(self) -> int:
        """Input elements of the whole batch."""
        return self.batch * self.c * self.h * self.w

    def output_elements(self) -> int:
        """Output elements of the whole batch."""
        return self.batch * self.m * self.out_h * self.out_w

    def kernel_elements(self) -> int:
        """Kernel elements (independent of batch: weights are shared)."""
        return self.m * (self.c // self.groups) * self.k * self.k

    @property
    def itemsize(self) -> int:
        """Bytes per tensor element at this scenario's precision."""
        return DTYPE_ITEMSIZE[self.dtype]

    @property
    def is_quantized(self) -> bool:
        """Whether the scenario runs below the fp32 reference precision."""
        return self.dtype != "fp32"

    # -- convenience ----------------------------------------------------------

    @property
    def per_image(self) -> "ConvScenario":
        """The equivalent single-image (batch-1) scenario."""
        if self.batch == 1:
            return self
        return replace(self, batch=1)

    def with_batch(self, batch: int) -> "ConvScenario":
        """The same scenario processing a minibatch of ``batch`` images.

        The batch is an explicit axis, so per-image semantics are exact:
        ``s.with_batch(n).macs() == n * s.per_image.macs()`` for every
        scenario, including strided and padded ones.  (An earlier stub folded
        the batch into the image height, which overcounts whenever stride,
        padding or tiling interact with the image boundary — e.g. a stride-2
        7x7/k3 scenario costs 7776 MACs for 4 images but 8424 when the four
        images are stacked into one 28-row image.)
        """
        if batch < 1:
            raise ValueError("batch must be >= 1")
        if batch == self.batch:
            return self
        return replace(self, batch=batch)

    def with_dtype(self, dtype: str) -> "ConvScenario":
        """The same scenario computed at another numeric precision.

        Precision is an explicit axis exactly like the batch: geometry and
        element counts are untouched (``s.with_dtype(d).macs() == s.macs()``),
        so per-image exactness is preserved; only byte traffic, lane packing,
        primitive applicability and the modelled accuracy change.
        """
        if dtype not in DTYPES:
            raise ValueError(f"dtype must be one of {DTYPES}, got {dtype!r}")
        if dtype == self.dtype:
            return self
        return replace(self, dtype=dtype)

    def describe(self) -> str:
        """Human-readable one-line description used in reports and figures."""
        parts = [
            f"C={self.c}",
            f"H={self.h}",
            f"W={self.w}",
            f"stride={self.stride}",
            f"K={self.k}",
            f"M={self.m}",
        ]
        if self.padding:
            parts.append(f"pad={self.padding}")
        if self.groups != 1:
            parts.append(f"groups={self.groups}")
        if self.batch != 1:
            parts.append(f"N={self.batch}")
        if self.dtype != "fp32":
            parts.append(f"dtype={self.dtype}")
        return " ".join(parts)
