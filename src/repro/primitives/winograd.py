"""The Winograd family of fast convolution primitives.

Section 4: "the Winograd family of methods use the Winograd algorithm for
convolution with a theoretically optimal number of multiplications ...  We
implemented the Winograd algorithm for scenarios with K = 3 and K = 5."

Two shapes of variant are provided, matching Figure 4 of the paper:

* :class:`Winograd2DPrimitive` — tiled two-dimensional Winograd ``F(m x m,
  r x r)``; minimal multiplications but a large transformed-domain workspace
  (the ``(m+r-1)^2 / m^2`` expansion), which the paper identifies as the
  reason 2D Winograd wins on the large-cache Intel part;
* :class:`Winograd1DPrimitive` — two-dimensional convolution assembled from
  one-dimensional Winograd convolutions ``F(m, r)`` applied along image rows,
  one per kernel row.  More floating point operations but far less memory,
  which is why the selector prefers it on the small-cache ARM Cortex-A57.

The transform matrices ``A^T``, ``G`` and ``B^T`` are generated for arbitrary
``(m, r)`` with the Cook–Toom construction (Vandermonde evaluation matrices
over the standard interpolation points plus the point at infinity); ``B^T``
is recovered by solving the bilinear correctness conditions exactly, and the
construction is validated numerically at build time.

Execution follows Lavin & Gray (*Fast Algorithms for Convolutional Neural
Networks*, CVPR 2016): the 2D form gathers every input tile position-major,
applies each transform as two GEMMs over all tiles at once, and reduces over
channels with one batched GEMM per transformed position.  The transformed
kernel ``U = G g G^T`` is recomputed on every call, so it is part of a
layer's measured time, but ``arithmetic_ops`` does not charge it: the
weights are static, and a deployment would ship ``U``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.graph.scenario import ConvScenario
from repro.layouts.layout import CHW, HCW, Layout
from repro.primitives.base import ConvPrimitive, PrimitiveFamily, PrimitiveTraits

#: Interpolation points used by the Cook–Toom construction, in the order they
#: are consumed.  Small-magnitude rationals keep the transforms well
#: conditioned for single-precision data (the same points used by wincnn).
_DEFAULT_POINTS = (0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 4.0, -4.0, 0.25, -0.25)


class WinogradConstructionError(RuntimeError):
    """Raised when transform generation fails to satisfy the correctness conditions."""


@lru_cache(maxsize=None)
def winograd_matrices(m: int, r: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Generate the 1D Winograd transform matrices for ``F(m, r)``.

    Returns ``(AT, G, BT)`` such that for a signal ``d`` of length
    ``n = m + r - 1`` and a kernel ``g`` of length ``r``::

        AT @ ((G @ g) * (BT @ d))

    equals the ``m`` outputs of the valid correlation of ``d`` with ``g``.

    Parameters
    ----------
    m:
        Output tile size (number of outputs produced per tile).
    r:
        Kernel size.

    Raises
    ------
    WinogradConstructionError
        If the generated matrices do not satisfy the bilinear correctness
        conditions to within numerical tolerance.
    """
    if m < 1 or r < 1:
        raise ValueError("m and r must be positive")
    n = m + r - 1
    if n - 1 > len(_DEFAULT_POINTS):
        raise ValueError(f"F({m},{r}) needs {n - 1} interpolation points; not enough available")
    points = np.array(_DEFAULT_POINTS[: n - 1], dtype=np.float64)

    # f_j = prod_{l != j} (a_j - a_l): the Lagrange denominator of each point.
    f = np.array(
        [np.prod([points[j] - points[q] for q in range(n - 1) if q != j]) for j in range(n - 1)]
    )

    # A^T (m x n): evaluation of the output polynomial at the points, plus the
    # point at infinity contributing only to the highest-order output.
    at = np.zeros((m, n))
    for i in range(m):
        at[i, : n - 1] = points**i
    at[m - 1, n - 1] = 1.0

    # G (n x r): evaluation of the kernel polynomial at the points, scaled by
    # the Lagrange denominators, plus the infinity row.
    g = np.zeros((n, r))
    for k in range(r):
        g[: n - 1, k] = (points**k) / f
    g[n - 1, r - 1] = 1.0

    # B^T (n x n): solved from the bilinear correctness conditions
    #   sum_t AT[i, t] * G[t, q] * BT[t, p] == [p == i + q]
    # which is a linear system W @ BT = D with W[(i, q), t] = AT[i, t] * G[t, q].
    w = np.zeros((m * r, n))
    d = np.zeros((m * r, n))
    row = 0
    for i in range(m):
        for q in range(r):
            w[row] = at[i] * g[:, q]
            d[row, i + q] = 1.0
            row += 1
    bt, residuals, rank, _ = np.linalg.lstsq(w, d, rcond=None)
    if rank < n:
        raise WinogradConstructionError(
            f"F({m},{r}): evaluation matrix is rank deficient (rank {rank} < {n})"
        )
    reconstruction = w @ bt
    if not np.allclose(reconstruction, d, atol=1e-8):
        raise WinogradConstructionError(
            f"F({m},{r}): no exact B^T satisfies the correctness conditions "
            f"(max error {np.max(np.abs(reconstruction - d)):.3e})"
        )
    return at, g, bt


def _sandwich(a: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """``a @ X @ a.T`` for every ``(p, p)`` slice ``X = blocks[:, :, b]``, as two GEMMs.

    ``a`` is ``(q, p)`` and ``blocks`` is ``(p, p, B)``; returns ``(q, q, B)``.
    """
    q, p = a.shape
    half = (a @ blocks.reshape(p, -1)).reshape(q, p, -1)
    return np.matmul(a, half)


class _WinogradBase(ConvPrimitive):
    """Shared structure of the Winograd variants."""

    def __init__(
        self,
        name: str,
        tile: int,
        kernel_size: int,
        input_layout: Layout,
        output_layout: Layout,
        vector_factor: int,
        requires_features=(),
        excluded_features=(),
    ) -> None:
        super().__init__(
            name=name,
            family=PrimitiveFamily.WINOGRAD,
            input_layout=input_layout,
            output_layout=output_layout,
            vector_factor=vector_factor,
            requires_features=requires_features,
            excluded_features=excluded_features,
        )
        self.tile = tile
        self.kernel_size = kernel_size
        # Build (and validate) the transforms eagerly so a misconfigured
        # variant fails at library construction time, not mid-selection.
        winograd_matrices(tile, kernel_size)

    @property
    def tile_input(self) -> int:
        """Input tile size ``n = m + r - 1``."""
        return self.tile + self.kernel_size - 1

    def supports(self, scenario: ConvScenario, platform=None) -> bool:
        # Every precision is offered, int8 included: the fractional tile
        # transforms run over the quantized operands, which loses more
        # accuracy than GEMM-family int8 — the cost model charges that as a
        # larger modelled accuracy penalty rather than declining outright.
        return (
            scenario.k == self.kernel_size
            and scenario.stride == 1
            and self.supports_dtype(scenario.dtype)
            and self.available_on(platform)
        )


class Winograd2DPrimitive(_WinogradBase):
    """Tiled 2D Winograd convolution ``F(m x m, r x r)``."""

    def __init__(
        self,
        name: str,
        tile: int = 2,
        kernel_size: int = 3,
        input_layout: Layout = CHW,
        output_layout: Layout = CHW,
        vector_factor: int = 1,
    ) -> None:
        super().__init__(name, tile, kernel_size, input_layout, output_layout, vector_factor)

    def traits(self) -> PrimitiveTraits:
        return PrimitiveTraits(
            gemm_fraction=0.88,
            locality=0.70,
            parallel_efficiency=0.85,
            per_call_overhead_ops=12_000.0,
        )

    # -- cost ---------------------------------------------------------------------

    def _tiles(self, scenario: ConvScenario) -> Tuple[int, int]:
        tiles_h = -(-scenario.out_h // self.tile)
        tiles_w = -(-scenario.out_w // self.tile)
        return tiles_h, tiles_w

    def arithmetic_ops(self, scenario: ConvScenario) -> float:
        m, n = self.tile, self.tile_input
        tiles_h, tiles_w = self._tiles(scenario)
        tiles = tiles_h * tiles_w
        c = scenario.c // scenario.groups
        filters = scenario.m // scenario.groups
        # Elementwise multiply-accumulate in the transformed domain.
        elementwise = 2.0 * tiles * n * n * c * filters
        # Input transform: two small matrix products per tile per channel.
        input_transform = tiles * c * 2.0 * (2.0 * n**3)
        # Output transform: two small matrix products per tile per filter.
        output_transform = tiles * filters * 2.0 * (m * n * n + m * m * n)
        # The kernel transform is not charged: weights are static, so the
        # transformed kernels are produced once at deployment time and shipped
        # with the model (like the paper's cost tables).  Every remaining term
        # is per-image work, so the total scales with the batch.
        return scenario.batch * scenario.groups * (
            elementwise + input_transform + output_transform
        )

    def workspace_elements(self, scenario: ConvScenario) -> float:
        n = self.tile_input
        tiles_h, tiles_w = self._tiles(scenario)
        tiles = tiles_h * tiles_w
        c = scenario.c // scenario.groups
        # The transformed input and output tiles of the whole image are live at
        # once; the (pre-)transformed kernels are streamed in blocks of at most
        # 32 output maps.
        filters = scenario.m // scenario.groups
        transformed_input = tiles * c * n * n
        transformed_kernel = min(filters, 32) * c * n * n
        transformed_output = tiles * filters * n * n
        return float(scenario.groups * (transformed_input + transformed_output) + transformed_kernel)

    def inner_working_set_elements(self, scenario: ConvScenario) -> float:
        # The elementwise stage walks, per tile, one transformed input tile for
        # every channel and accumulates one transformed output tile for every
        # output map, so a (C + M) * n^2 slab must stay cache resident.
        n = self.tile_input
        c = scenario.c // scenario.groups
        return float((c + scenario.m // scenario.groups) * n * n)

    # -- execution ------------------------------------------------------------------

    def _compute(self, x_chw: np.ndarray, kernel: np.ndarray, scenario: ConvScenario) -> np.ndarray:
        """``F(m x m, r x r)`` over the whole image as a handful of GEMMs.

        The ``T`` input tiles of every channel are gathered position-major,
        as a ``(n, n, C*T)`` block, so each transform ``V = B^T d B``,
        ``U = G g G^T`` and ``Y = A^T M A`` is two GEMMs over all tiles at
        once (:func:`_sandwich`), and the channel reduction is one batched
        ``(n^2, M, C) @ (n^2, C, T)`` product over the ``n^2`` transformed
        positions (Lavin & Gray's formulation).  Every stage buffer is
        released as soon as the next one is built; the live scratch peaks
        inside the input transform, where the gathered tiles, their half
        transform and ``V`` (``n^2 * C * T`` elements each) are live
        together.  ``U`` is recomputed on every call and counted in
        ``measured_ms``, although :meth:`arithmetic_ops` does not charge it
        (static weights).
        """
        at, g, bt = winograd_matrices(self.tile, self.kernel_size)
        m_tile, n, r = self.tile, self.tile_input, self.kernel_size
        c, filters = scenario.c, scenario.m
        tiles_h, tiles_w = self._tiles(scenario)
        tiles = tiles_h * tiles_w

        # Pad the input so that an integer number of tiles covers the output.
        pad_h = (tiles_h - 1) * m_tile + n - scenario.h
        pad_w = (tiles_w - 1) * m_tile + n - scenario.w
        x64 = np.pad(
            x_chw.astype(np.float64, copy=False),
            ((0, 0), (0, max(pad_h, 0)), (0, max(pad_w, 0))),
            mode="constant",
        )

        # Gather the tiles position-major: (n, n, C * tiles).
        windows = sliding_window_view(x64, (n, n), axis=(1, 2))[:, ::m_tile, ::m_tile]
        d = np.ascontiguousarray(windows.transpose(3, 4, 0, 1, 2)).reshape(n, n, c * tiles)
        del windows, x64
        v = _sandwich(bt, d).reshape(n * n, c, tiles)
        del d
        flat_kernel = kernel.astype(np.float64, copy=False).transpose(2, 3, 0, 1)
        u = _sandwich(g, flat_kernel.reshape(r, r, filters * c)).reshape(n * n, filters, c)

        # Channel reduction: one GEMM per transformed position.
        prod = np.matmul(u, v).reshape(n, n, filters * tiles)
        del u, v
        y = _sandwich(at, prod)
        del prod

        # Scatter: (m, m, M, tiles_h, tiles_w) -> (M, tiles_h * m, tiles_w * m), cropped.
        y = y.reshape(m_tile, m_tile, filters, tiles_h, tiles_w).transpose(2, 3, 0, 4, 1)
        out = y.reshape(filters, tiles_h * m_tile, tiles_w * m_tile)
        return out[:, : scenario.out_h, : scenario.out_w]


class Winograd1DPrimitive(_WinogradBase):
    """2D convolution as a sum of row-wise 1D Winograd convolutions ``F(m, r)``."""

    def __init__(
        self,
        name: str,
        tile: int = 2,
        kernel_size: int = 3,
        input_layout: Layout = HCW,
        output_layout: Layout = HCW,
        vector_factor: int = 1,
    ) -> None:
        # The row-streaming low-memory form trades arithmetic for footprint —
        # a CPU-cache bargain with no SIMT analogue (GPU libraries implement
        # the tiled 2D form only), so SIMT platforms never price it.
        super().__init__(
            name,
            tile,
            kernel_size,
            input_layout,
            output_layout,
            vector_factor,
            excluded_features=("simt",),
        )

    def traits(self) -> PrimitiveTraits:
        return PrimitiveTraits(
            gemm_fraction=0.80,
            locality=0.78,
            parallel_efficiency=0.83,
            per_call_overhead_ops=9_000.0,
        )

    def _tiles_w(self, scenario: ConvScenario) -> int:
        return -(-scenario.out_w // self.tile)

    def arithmetic_ops(self, scenario: ConvScenario) -> float:
        m_tile, n = self.tile, self.tile_input
        r = self.kernel_size
        tiles_w = self._tiles_w(scenario)
        c = scenario.c // scenario.groups
        filters = scenario.m // scenario.groups
        rows = scenario.out_h
        # One 1D Winograd pass per kernel row.
        per_row_sites = tiles_w * rows
        elementwise = 2.0 * per_row_sites * n * c * filters
        input_transform = per_row_sites * c * 2.0 * n * n
        output_transform = per_row_sites * filters * 2.0 * m_tile * n
        # Kernel-row transforms are precomputed at deployment time (static
        # weights); the remaining per-image work scales with the batch.
        return scenario.batch * scenario.groups * r * (
            elementwise + input_transform + output_transform
        )

    def workspace_elements(self, scenario: ConvScenario) -> float:
        n = self.tile_input
        tiles_w = self._tiles_w(scenario)
        c = scenario.c // scenario.groups
        # Only one row of transformed tiles is live at a time, plus a blocked
        # window of the (pre-)transformed kernel rows — the low-memory
        # property that favours this form on small-cache processors.
        filters = scenario.m // scenario.groups
        transformed_row = tiles_w * c * n
        transformed_kernel = min(filters, 32) * c * n * self.kernel_size
        partial_output = filters * scenario.out_w
        return float(scenario.groups * (transformed_row + partial_output) + transformed_kernel)

    def inner_working_set_elements(self, scenario: ConvScenario) -> float:
        # Only one length-n transformed segment per channel and per output map
        # is live inside the inner loop — the low-memory property of the 1D form.
        n = self.tile_input
        c = scenario.c // scenario.groups
        return float((c + scenario.m // scenario.groups) * n)

    def _compute(self, x_chw: np.ndarray, kernel: np.ndarray, scenario: ConvScenario) -> np.ndarray:
        """All output rows at once, one pass per kernel row.

        This trades the row-streamed form's footprint for numpy efficiency:
        every row's transformed tiles are live at once.  The result equals
        :meth:`_compute_streamed`, whose scratch is what
        :meth:`workspace_elements` models.
        """
        at, g, bt = winograd_matrices(self.tile, self.kernel_size)
        m_tile, n = self.tile, self.tile_input
        r = self.kernel_size
        out_h, out_w = scenario.out_h, scenario.out_w
        tiles_w = self._tiles_w(scenario)

        pad_w = (tiles_w - 1) * m_tile + n - scenario.w
        x64 = np.pad(
            x_chw.astype(np.float64, copy=False),
            ((0, 0), (0, 0), (0, max(pad_w, 0))),
            mode="constant",
        )
        kernel64 = kernel.astype(np.float64, copy=False)

        # Transformed kernel rows: (r, M, C, n).
        u_rows = np.einsum("ij,mckj->kmci", g, kernel64, optimize=True)

        out = np.zeros((scenario.m, out_h, out_w), dtype=np.float64)
        for kh in range(r):
            # Rows of the input that align with output rows for this kernel row.
            slab = x64[:, kh : kh + out_h, :]  # (C, out_h, padded_w)
            # Width tiles as a strided view: (C, out_h, tiles_w, n).
            tiles = sliding_window_view(slab, n, axis=2)[:, :, ::m_tile]
            v = np.einsum("ij,chtj->chti", bt, tiles, optimize=True)
            prod = np.einsum("mci,chti->mhti", u_rows[kh], v, optimize=True)
            y = np.einsum("pi,mhti->mhtp", at, prod, optimize=True)
            out += y.reshape(scenario.m, out_h, tiles_w * m_tile)[:, :, :out_w]
        return out

    def _compute_streamed(
        self, x_chw: np.ndarray, kernel: np.ndarray, scenario: ConvScenario
    ) -> np.ndarray:
        """The memory-faithful row-streamed form of the 1D algorithm.

        Processes one output row at a time, so the live scratch is exactly
        what :meth:`workspace_elements` models: one row of transformed input
        tiles, one row of output partials and the transformed kernel rows.
        It computes the vectorized :meth:`_compute` result to rounding and is
        not on the execution path: it exists so that the workspace model can
        be checked against a real execution.
        """
        at, g, bt = winograd_matrices(self.tile, self.kernel_size)
        m_tile, n = self.tile, self.tile_input
        r = self.kernel_size
        out_h, out_w = scenario.out_h, scenario.out_w
        tiles_w = self._tiles_w(scenario)

        pad_w = (tiles_w - 1) * m_tile + n - scenario.w
        x64 = np.pad(
            x_chw.astype(np.float64, copy=False),
            ((0, 0), (0, 0), (0, max(pad_w, 0))),
            mode="constant",
        )
        kernel64 = kernel.astype(np.float64, copy=False)
        u_rows = np.einsum("ij,mckj->kmci", g, kernel64, optimize=True)

        out = np.empty((scenario.m, out_h, out_w), dtype=np.float64)
        gathered = np.empty((scenario.c, tiles_w, n), dtype=np.float64)
        for h in range(out_h):
            acc = np.zeros((scenario.m, tiles_w, m_tile), dtype=np.float64)
            for kh in range(r):
                row = x64[:, h + kh, :]
                for tw in range(tiles_w):
                    gathered[:, tw, :] = row[:, tw * m_tile : tw * m_tile + n]
                v = np.einsum("ij,ctj->cti", bt, gathered, optimize=True)
                prod = np.einsum("mci,cti->mti", u_rows[kh], v, optimize=True)
                acc += np.einsum("pi,mti->mtp", at, prod, optimize=True)
            out[:, h, :] = acc.reshape(scenario.m, tiles_w * m_tile)[:, :out_w]
        return out
