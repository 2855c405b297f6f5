"""Tensor data-layout descriptions.

A feature-map tensor in this reproduction is logically a 3D array with
dimensions ``C`` (channels), ``H`` (height) and ``W`` (width), matching the
paper's convolutional scenario model (section 3).  A *layout* describes how
that logical tensor is arranged in memory:

* a **permutation** of the axes, e.g. ``CHW`` (the Caffe canonical layout),
  ``HWC`` (channel-minor, favoured by GEMM-based primitives) or ``HCW``;
* optionally, **channel blocking**: the channel dimension is split into
  ``ceil(C / block)`` outer blocks with an innermost dimension of ``block``
  channels, e.g. ``CHWc8`` which is the layout used by 8-wide vectorized
  kernels (AVX2) and ``CHWc4`` used by 4-wide kernels (NEON).

Layouts are value objects: equality and hashing are by name, and the module
maintains a registry of the standard layouts used by the primitive library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: The three logical axes of a feature-map tensor.
AXES = ("C", "H", "W")


@dataclass(frozen=True)
class Layout:
    """A memory layout for a logical ``C x H x W`` tensor.

    Parameters
    ----------
    name:
        Unique identifier, e.g. ``"CHW"`` or ``"CHWc8"``.
    order:
        Permutation of ``("C", "H", "W")`` giving the outer dimension order.
    channel_block:
        If not ``None``, the channel dimension is blocked with this factor and
        the block becomes the innermost physical dimension.
    """

    name: str
    order: Tuple[str, str, str]
    channel_block: Optional[int] = None

    def __post_init__(self) -> None:
        if sorted(self.order) != sorted(AXES):
            raise ValueError(
                f"layout order must be a permutation of {AXES}, got {self.order!r}"
            )
        if self.channel_block is not None and self.channel_block < 1:
            raise ValueError("channel_block must be a positive integer")

    @property
    def is_blocked(self) -> bool:
        """Whether the channel dimension is blocked (vector-friendly layout)."""
        return self.channel_block is not None

    def axis_position(self, axis: str) -> int:
        """Return the position of a logical axis in the outer dimension order."""
        return self.order.index(axis)

    def physical_shape(self, c: int, h: int, w: int) -> Tuple[int, ...]:
        """Shape of the physical array holding a logical ``(c, h, w)`` tensor.

        Blocked layouts pad the channel dimension up to a multiple of the
        block size; the padding channels hold zeros.
        """
        if c <= 0 or h <= 0 or w <= 0:
            raise ValueError("tensor dimensions must be positive")
        sizes = {"C": c, "H": h, "W": w}
        if self.channel_block is not None:
            blocks = -(-c // self.channel_block)
            sizes = {"C": blocks, "H": h, "W": w}
            outer = tuple(sizes[a] for a in self.order)
            return outer + (self.channel_block,)
        return tuple(sizes[a] for a in self.order)

    def element_count(self, c: int, h: int, w: int) -> int:
        """Number of stored elements, including block padding: the padded
        channel count times ``h * w`` (the product of :meth:`physical_shape`)."""
        if c <= 0 or h <= 0 or w <= 0:
            raise ValueError("tensor dimensions must be positive")
        if self.channel_block is not None:
            c = -(-c // self.channel_block) * self.channel_block
        return c * h * w

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name

    def __repr__(self) -> str:
        return f"Layout({self.name!r})"


def _permutation_name(order: Tuple[str, str, str]) -> str:
    return "".join(order)


def make_layout(order: Tuple[str, str, str], channel_block: Optional[int] = None) -> Layout:
    """Construct a layout with a canonical name derived from its structure."""
    name = _permutation_name(order)
    if channel_block is not None:
        name = f"{name}c{channel_block}"
    return Layout(name=name, order=order, channel_block=channel_block)


# ---------------------------------------------------------------------------
# Standard layouts used by the primitive library.
# ---------------------------------------------------------------------------

#: Caffe's canonical layout; used by the direct-loop and sum2d families.
CHW = make_layout(("C", "H", "W"))
#: Channel-minor layout favoured by im2row / kn2row GEMM-based primitives.
HWC = make_layout(("H", "W", "C"))
#: Row-major channel-interleaved layout used by some 1D Winograd variants.
HCW = make_layout(("H", "C", "W"))
#: Width-major layout; only reachable through conversion chains (stress case).
WHC = make_layout(("W", "H", "C"))
#: Channel-blocked layouts used by vectorized kernels (NEON: 4, AVX2: 8).
CHW4c = make_layout(("C", "H", "W"), channel_block=4)
CHW8c = make_layout(("C", "H", "W"), channel_block=8)
HWC4c = make_layout(("H", "W", "C"), channel_block=4)
HWC8c = make_layout(("H", "W", "C"), channel_block=8)

#: Registry of every layout known to the reproduction, keyed by name.
STANDARD_LAYOUTS: Dict[str, Layout] = {
    layout.name: layout
    for layout in (CHW, HWC, HCW, WHC, CHW4c, CHW8c, HWC4c, HWC8c)
}


def get_layout(name: str) -> Layout:
    """Look up a standard layout by name.

    Raises
    ------
    KeyError
        If the name does not correspond to a registered layout.
    """
    try:
        return STANDARD_LAYOUTS[name]
    except KeyError:
        raise KeyError(
            f"unknown layout {name!r}; known layouts: {sorted(STANDARD_LAYOUTS)}"
        ) from None
