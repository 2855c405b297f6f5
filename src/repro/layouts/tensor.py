"""Layout-aware tensor wrapper.

``LayoutTensor`` couples a numpy array with the :class:`~repro.layouts.layout.Layout`
it is stored in, plus the logical ``(C, H, W)`` shape (needed because blocked
layouts pad the channel dimension).  All primitives in
:mod:`repro.primitives` consume and produce ``LayoutTensor`` values; the
canonical interchange format is the ``CHW`` logical view obtained with
:meth:`LayoutTensor.to_chw`.

A tensor may additionally carry an explicit **batch** axis: ``batch=None``
(the default) is a single image whose physical array is exactly
``layout.physical_shape(C, H, W)``; ``batch=N`` prepends one outermost ``N``
axis to that physical shape, i.e. the batch is stored as ``N`` consecutive
per-image layouts (the ``(N, C, H, W)`` family of physical formats).  The
batched interchange format is the ``(N, C, H, W)`` view of
:meth:`LayoutTensor.to_nchw`; layout conversions treat the batch axis as
purely elementwise, so every transform chain works unchanged on batched
tensors.

Precision support lives here too: :data:`NUMPY_DTYPES` maps the scenario
dtype axis (``"fp32"``/``"fp16"``/``"int8"``) onto numpy storage types, and
:func:`quantize_symmetric`/:func:`dequantize` implement the int8 scheme every
quantized primitive shares — symmetric per-tensor scaling into ``[-127, 127]``
with exact int32-style accumulation (integer-valued products are accumulated
without rounding, then rescaled once per tensor).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.layouts.layout import CHW, Layout

#: Numpy storage type per scenario precision.  Layout conversions are
#: dtype-polymorphic (``_chw_to_physical`` preserves the array dtype), so a
#: blocked int8 tensor pads with int8 zeros and moves 1-byte elements.
NUMPY_DTYPES = {"fp32": np.float32, "fp16": np.float16, "int8": np.int8}

#: The int8 quantization grid: symmetric, so -128 is never produced and the
#: representable range is exactly ``[-127 * scale, 127 * scale]``.
INT8_QUANT_MAX = 127


def quantize_symmetric(array: np.ndarray) -> Tuple[np.ndarray, float]:
    """Quantize a float tensor to int8 with one symmetric per-tensor scale.

    Returns ``(q, scale)`` with ``q`` an int8 array in ``[-127, 127]`` and
    ``scale`` the dequantization step, chosen so the tensor's max magnitude
    maps to 127 (``scale = max|x| / 127``).  An all-zero tensor quantizes to
    zeros with scale 1.0 so dequantization is always well defined.
    """
    array = np.asarray(array, dtype=np.float64)
    peak = float(np.max(np.abs(array))) if array.size else 0.0
    if peak == 0.0:
        return np.zeros(array.shape, dtype=np.int8), 1.0
    scale = peak / INT8_QUANT_MAX
    q = np.clip(np.rint(array / scale), -INT8_QUANT_MAX, INT8_QUANT_MAX)
    return q.astype(np.int8), scale


def dequantize(q: np.ndarray, scale: float) -> np.ndarray:
    """Map int8 (or int32 accumulator) values back onto the real line."""
    return np.asarray(q, dtype=np.float64) * float(scale)


def fp16_round_trip(array: np.ndarray) -> np.ndarray:
    """Round a float tensor through IEEE fp16 storage precision.

    Models an fp16 compute path: operands are held in half precision, the
    accumulation happens in a wider type (as real fp16 FMA units do), so the
    precision loss is exactly the fp16 rounding of the operands.
    """
    return np.asarray(array).astype(np.float16).astype(np.float32)


@dataclass
class LayoutTensor:
    """A feature-map tensor stored in a particular data layout.

    Attributes
    ----------
    data:
        The physical numpy array.  For a single image its shape equals
        ``layout.physical_shape(*logical_shape)``; for a batched tensor a
        leading ``(batch,)`` axis is prepended.
    layout:
        The layout the data is stored in.
    logical_shape:
        The logical per-image ``(C, H, W)`` dimensions (excluding any block
        padding and excluding the batch axis).
    batch:
        ``None`` for a single image; the batch size ``N`` for a batched
        tensor.
    """

    data: np.ndarray
    layout: Layout
    logical_shape: Tuple[int, int, int]
    batch: Optional[int] = None

    def __post_init__(self) -> None:
        expected = self.layout.physical_shape(*self.logical_shape)
        if self.batch is not None:
            if self.batch < 1:
                raise ValueError(f"batch must be >= 1 or None, got {self.batch}")
            expected = (self.batch,) + expected
        if tuple(self.data.shape) != expected:
            raise ValueError(
                f"array shape {tuple(self.data.shape)} does not match physical "
                f"shape {expected} for layout {self.layout.name}, logical "
                f"shape {self.logical_shape} and batch {self.batch}"
            )

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_chw(cls, array: np.ndarray, layout: Layout = CHW) -> "LayoutTensor":
        """Build a single-image tensor in ``layout`` from a ``(C, H, W)`` array."""
        array = np.asarray(array)
        if array.ndim != 3:
            raise ValueError(f"expected a 3D (C, H, W) array, got ndim={array.ndim}")
        c, h, w = array.shape
        physical = _chw_to_physical(array, layout)
        return cls(data=physical, layout=layout, logical_shape=(c, h, w))

    @classmethod
    def from_nchw(cls, array: np.ndarray, layout: Layout = CHW) -> "LayoutTensor":
        """Build a batched tensor in ``layout`` from an ``(N, C, H, W)`` array."""
        array = np.asarray(array)
        if array.ndim != 4:
            raise ValueError(f"expected a 4D (N, C, H, W) array, got ndim={array.ndim}")
        n, c, h, w = array.shape
        physical = _chw_to_physical(array, layout)
        return cls(data=physical, layout=layout, logical_shape=(c, h, w), batch=n)

    @classmethod
    def zeros(
        cls,
        logical_shape: Tuple[int, int, int],
        layout: Layout = CHW,
        dtype=np.float32,
        batch: Optional[int] = None,
    ) -> "LayoutTensor":
        """A zero tensor of the given logical shape in the given layout."""
        physical_shape = layout.physical_shape(*logical_shape)
        if batch is not None:
            physical_shape = (batch,) + physical_shape
        physical = np.zeros(physical_shape, dtype=dtype)
        return cls(data=physical, layout=layout, logical_shape=logical_shape, batch=batch)

    # -- conversions --------------------------------------------------------

    def to_chw(self) -> np.ndarray:
        """Return the canonical ``(C, H, W)`` view of a single-image tensor."""
        if self.batch is not None:
            raise ValueError(
                f"tensor is batched (batch={self.batch}); use to_nchw() instead"
            )
        return _physical_to_chw(self.data, self.layout, self.logical_shape)

    def to_nchw(self) -> np.ndarray:
        """Return the canonical ``(N, C, H, W)`` view of a batched tensor."""
        if self.batch is None:
            raise ValueError("tensor is not batched; use to_chw() instead")
        return _physical_to_chw(self.data, self.layout, self.logical_shape)

    def to_logical(self) -> np.ndarray:
        """The canonical logical view: ``(C, H, W)`` or ``(N, C, H, W)``."""
        return _physical_to_chw(self.data, self.layout, self.logical_shape)

    def convert(self, layout: Layout) -> "LayoutTensor":
        """Return a copy of this tensor stored in another layout."""
        if layout == self.layout:
            return LayoutTensor(
                data=self.data.copy(),
                layout=self.layout,
                logical_shape=self.logical_shape,
                batch=self.batch,
            )
        if self.batch is not None:
            return LayoutTensor.from_nchw(self.to_nchw(), layout)
        return LayoutTensor.from_chw(self.to_chw(), layout)

    # -- niceties ------------------------------------------------------------

    @property
    def channels(self) -> int:
        return self.logical_shape[0]

    @property
    def height(self) -> int:
        return self.logical_shape[1]

    @property
    def width(self) -> int:
        return self.logical_shape[2]

    @property
    def dtype(self):
        return self.data.dtype

    def allclose(self, other: "LayoutTensor", rtol: float = 1e-5, atol: float = 1e-6) -> bool:
        """Compare two layout tensors by their logical contents."""
        if self.logical_shape != other.logical_shape or self.batch != other.batch:
            return False
        return np.allclose(self.to_logical(), other.to_logical(), rtol=rtol, atol=atol)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        batch = "" if self.batch is None else f", batch={self.batch}"
        return (
            f"LayoutTensor(layout={self.layout.name}, logical_shape={self.logical_shape}"
            f"{batch}, dtype={self.data.dtype})"
        )


# ---------------------------------------------------------------------------
# Physical <-> logical conversion helpers.
#
# Both helpers accept an optional leading batch axis: a 4D (N, C, H, W)
# logical array maps to a physical array with the same leading N, and the
# per-image layout permutation / blocking applies to the trailing axes.
# ---------------------------------------------------------------------------


def _chw_to_physical(array: np.ndarray, layout: Layout) -> np.ndarray:
    """Convert a canonical (C, H, W) or (N, C, H, W) array into physical form."""
    lead = array.ndim - 3  # 0 for a single image, 1 for a batched tensor
    c, h, w = array.shape[lead:]
    if layout.channel_block is None:
        perm = tuple(range(lead)) + tuple(lead + "CHW".index(a) for a in layout.order)
        return np.ascontiguousarray(np.transpose(array, perm))
    block = layout.channel_block
    blocks = -(-c // block)
    padded = np.zeros(array.shape[:lead] + (blocks * block, h, w), dtype=array.dtype)
    padded[..., :c, :, :] = array
    # Shape (..., blocks, block, H, W) then move the block to the innermost
    # axis and reorder the outer axes according to the layout permutation of
    # (Cb, H, W).
    grouped = padded.reshape(array.shape[:lead] + (blocks, block, h, w))
    sizes = {"C": 0, "H": 2, "W": 3}
    outer_axes = (
        tuple(range(lead))
        + tuple(lead + sizes[a] for a in layout.order)
        + (lead + 1,)
    )
    return np.ascontiguousarray(np.transpose(grouped, outer_axes))


def _physical_to_chw(
    physical: np.ndarray, layout: Layout, logical_shape: Tuple[int, int, int]
) -> np.ndarray:
    """Convert a physical array back into the canonical (C, H, W) / (N, C, H, W) view."""
    c, h, w = logical_shape
    per_image_ndim = 4 if layout.channel_block is not None else 3
    lead = physical.ndim - per_image_ndim
    if layout.channel_block is None:
        inverse = tuple(range(lead)) + tuple(
            lead + layout.order.index(a) for a in "CHW"
        )
        return np.ascontiguousarray(np.transpose(physical, inverse))
    block = layout.channel_block
    # Per-image physical shape is outer-permutation of (Cb, H, W) plus trailing block.
    positions = {axis: i for i, axis in enumerate(layout.order)}
    restore = tuple(range(lead)) + tuple(
        lead + i for i in (positions["C"], len(layout.order), positions["H"], positions["W"])
    )
    grouped = np.transpose(physical, restore)  # (..., Cb, block, H, W)
    blocks = grouped.shape[lead]
    flat = grouped.reshape(physical.shape[:lead] + (blocks * block, h, w))
    return np.ascontiguousarray(flat[..., :c, :, :])
