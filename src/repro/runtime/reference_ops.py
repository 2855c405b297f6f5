"""Reference implementations of the non-convolution DNN layers.

The primitive-selection formulation treats these layers as zero-cost dummy
nodes (paper section 5.2), but the functional runtime still has to execute
them to run whole networks end to end.  All operators work on canonical
``(C, H, W)`` numpy arrays and transparently accept a leading batch axis
(``(N, C, H, W)``), applying the layer independently to every image.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

import numpy as np

#: Axes of the per-image (C, H, W) block, counted from the end so the same
#: indexing works with and without a leading batch axis.
_CHANNEL_AXIS = -3
_IMAGE_AXES = (-3, -2, -1)


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear activation."""
    return np.maximum(x, 0.0)


def _pool_slices(
    x: np.ndarray, kernel: int, stride: int, padding: int, out_h: int, out_w: int, pad_value: float
) -> Iterator[np.ndarray]:
    """Yield the kernel*kernel strided (..., C, out_h, out_w) views of the padded input.

    One view per window offset, in row-major offset order.
    """
    lead = x.shape[:-3]
    c, h, w = x.shape[-3:]
    padded = np.full(
        lead + (c, h + 2 * padding + kernel, w + 2 * padding + kernel),
        pad_value,
        dtype=x.dtype,
    )
    padded[..., padding : padding + h, padding : padding + w] = x
    for kh in range(kernel):
        for kw in range(kernel):
            yield padded[
                ...,
                kh : kh + (out_h - 1) * stride + 1 : stride,
                kw : kw + (out_w - 1) * stride + 1 : stride,
            ]


def _pool_windows(
    x: np.ndarray, kernel: int, stride: int, padding: int, out_h: int, out_w: int, pad_value: float
) -> np.ndarray:
    """Gather pooling windows into a (..., C, out_h, out_w, kernel*kernel) array."""
    return np.stack(
        list(_pool_slices(x, kernel, stride, padding, out_h, out_w, pad_value)), axis=-1
    )


def max_pool(
    x: np.ndarray,
    kernel: int,
    stride: int,
    padding: int,
    output_shape: Tuple[int, int, int],
) -> np.ndarray:
    """Max pooling with Caffe-compatible output geometry supplied by the caller.

    A running maximum over the window offsets: a maximum does not depend on
    the order it is taken in, so this equals the maximum over gathered
    windows bit for bit without materializing them.
    """
    _, out_h, out_w = output_shape
    slices = _pool_slices(x, kernel, stride, padding, out_h, out_w, pad_value=-np.inf)
    out = next(slices).copy()
    for window in slices:
        np.maximum(out, window, out=out)
    return out


def average_pool(
    x: np.ndarray,
    kernel: int,
    stride: int,
    padding: int,
    output_shape: Tuple[int, int, int],
) -> np.ndarray:
    """Average pooling (zero padded, dividing by the full window size).

    The windows are gathered so that each is summed along one contiguous
    axis: a running sum would change the summation order, and so the bits.
    """
    _, out_h, out_w = output_shape
    windows = _pool_windows(x, kernel, stride, padding, out_h, out_w, pad_value=0.0)
    return windows.sum(axis=-1) / float(kernel * kernel)


def local_response_norm(
    x: np.ndarray, local_size: int = 5, alpha: float = 1e-4, beta: float = 0.75, k: float = 1.0
) -> np.ndarray:
    """AlexNet-style across-channel local response normalization."""
    c = x.shape[_CHANNEL_AXIS]
    squared = x**2
    half = local_size // 2
    scale = np.full_like(x, k)
    for channel in range(c):
        lo = max(0, channel - half)
        hi = min(c, channel + half + 1)
        scale[..., channel, :, :] += (alpha / local_size) * squared[..., lo:hi, :, :].sum(
            axis=_CHANNEL_AXIS
        )
    return x / scale**beta


def fully_connected(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Inner-product layer: flattens each image and applies ``W x + b``.

    Returns an ``(out_features, 1, 1)`` tensor per image to keep the 3D
    logical shape (with the batch axis preserved when present).
    """
    lead = x.shape[:-3]
    flat = x.reshape(lead + (-1,))
    if weights.shape[1] != flat.shape[-1]:
        raise ValueError(
            f"weight matrix expects {weights.shape[1]} inputs, got {flat.shape[-1]}"
        )
    out = flat @ weights.T + bias
    return out.reshape(lead + (-1, 1, 1))


def softmax(x: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over each image's elements."""
    shifted = x - x.max(axis=_IMAGE_AXES, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=_IMAGE_AXES, keepdims=True)


def concat_channels(inputs: Sequence[np.ndarray]) -> np.ndarray:
    """Channel-wise concatenation (the inception join)."""
    return np.concatenate(list(inputs), axis=_CHANNEL_AXIS)


def eltwise_add(inputs: Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise sum of same-shape tensors (the residual join)."""
    inputs = list(inputs)
    if len(inputs) < 2:
        raise ValueError(f"eltwise add needs at least two inputs, got {len(inputs)}")
    shapes = {tensor.shape for tensor in inputs}
    if len(shapes) != 1:
        raise ValueError(f"eltwise add inputs disagree on shape: {sorted(shapes)}")
    out = inputs[0].copy()
    for tensor in inputs[1:]:
        out += tensor
    return out


def flatten(x: np.ndarray) -> np.ndarray:
    """Flatten each image to a ``(C*H*W, 1, 1)`` tensor (batch axis preserved)."""
    return x.reshape(x.shape[:-3] + (-1, 1, 1))
