"""Tests for the Winograd transform generation and the Winograd primitives."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.scenario import ConvScenario
from repro.layouts.tensor import LayoutTensor
from repro.primitives.base import _pad_scenario
from repro.primitives.reference import Sum2DPrimitive, reference_convolution
from repro.primitives.winograd import (
    Winograd1DPrimitive,
    Winograd2DPrimitive,
    winograd_matrices,
)

#: All (m, r) pairs the registry instantiates.
TILE_KERNEL_PAIRS = [(2, 3), (3, 3), (4, 3), (2, 5), (3, 5)]


def _loop_gathered_1d(primitive, x_chw, kernel, scenario):
    """The 1D Winograd path with its width tiles gathered by a Python loop.

    The same einsums as :meth:`Winograd1DPrimitive._compute`, over tiles
    copied one tile column at a time instead of taken as a strided view.
    """
    at, g, bt = winograd_matrices(primitive.tile, primitive.kernel_size)
    m_tile, n = primitive.tile, primitive.tile_input
    out_h, out_w = scenario.out_h, scenario.out_w
    tiles_w = primitive._tiles_w(scenario)
    pad_w = (tiles_w - 1) * m_tile + n - scenario.w
    x64 = np.pad(x_chw.astype(np.float64), ((0, 0), (0, 0), (0, max(pad_w, 0))))
    u_rows = np.einsum("ij,mckj->kmci", g, kernel.astype(np.float64), optimize=True)
    out = np.zeros((scenario.m, out_h, out_w), dtype=np.float64)
    for kh in range(primitive.kernel_size):
        slab = x64[:, kh : kh + out_h, :]
        tiles = np.empty((scenario.c, out_h, tiles_w, n), dtype=np.float64)
        for tw in range(tiles_w):
            tiles[:, :, tw, :] = slab[:, :, tw * m_tile : tw * m_tile + n]
        v = np.einsum("ij,chtj->chti", bt, tiles, optimize=True)
        prod = np.einsum("mci,chti->mhti", u_rows[kh], v, optimize=True)
        y = np.einsum("pi,mhti->mhtp", at, prod, optimize=True)
        out += y.reshape(scenario.m, out_h, tiles_w * m_tile)[:, :, :out_w]
    return out


@st.composite
def winograd_cases(draw):
    """A random Winograd scenario, with partial tiles and single-tile images."""
    m, r = draw(st.sampled_from(TILE_KERNEL_PAIRS))
    groups = draw(st.sampled_from([1, 2]))
    scenario = ConvScenario(
        c=groups * draw(st.integers(1, 8 // groups)),
        h=draw(st.integers(r, 20)),
        w=draw(st.integers(r, 20)),
        stride=1,
        k=r,
        m=groups * draw(st.integers(1, 8 // groups)),
        padding=draw(st.integers(0, r // 2)),
        groups=groups,
    )
    return m, scenario, draw(st.integers(0, 2**32 - 1))


class TestTransformGeneration:
    @pytest.mark.parametrize("m,r", TILE_KERNEL_PAIRS + [(4, 5), (6, 3)])
    def test_matrices_have_expected_shapes(self, m, r):
        at, g, bt = winograd_matrices(m, r)
        n = m + r - 1
        assert at.shape == (m, n)
        assert g.shape == (n, r)
        assert bt.shape == (n, n)

    @pytest.mark.parametrize("m,r", TILE_KERNEL_PAIRS)
    def test_f23_style_identity_on_random_signals(self, m, r):
        """AT((Gg) * (BTd)) equals the valid 1D correlation for random inputs."""
        n = m + r - 1
        at, g, bt = winograd_matrices(m, r)
        rng = np.random.default_rng(m * 10 + r)
        for _ in range(25):
            d = rng.standard_normal(n)
            kernel = rng.standard_normal(r)
            result = at @ ((g @ kernel) * (bt @ d))
            expected = np.array([np.dot(d[i : i + r], kernel) for i in range(m)])
            np.testing.assert_allclose(result, expected, rtol=1e-8, atol=1e-8)

    def test_f23_matches_published_output_count(self):
        at, g, bt = winograd_matrices(2, 3)
        # F(2,3) uses 4 multiplications for 2 outputs (the published minimum).
        assert at.shape == (2, 4)
        assert g.shape == (4, 3)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            winograd_matrices(0, 3)
        with pytest.raises(ValueError):
            winograd_matrices(3, 0)

    def test_results_cached(self):
        first = winograd_matrices(2, 3)
        second = winograd_matrices(2, 3)
        assert first[0] is second[0]

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(2, 5),
        r=st.sampled_from([3, 5]),
        seed=st.integers(0, 1000),
    )
    def test_identity_property(self, m, r, seed):
        n = m + r - 1
        at, g, bt = winograd_matrices(m, r)
        rng = np.random.default_rng(seed)
        d = rng.uniform(-2, 2, size=n)
        kernel = rng.uniform(-2, 2, size=r)
        result = at @ ((g @ kernel) * (bt @ d))
        expected = np.array([np.dot(d[i : i + r], kernel) for i in range(m)])
        np.testing.assert_allclose(result, expected, rtol=1e-7, atol=1e-7)


class TestWinogradPrimitives:
    @pytest.mark.parametrize("m,r", TILE_KERNEL_PAIRS)
    @pytest.mark.parametrize("dimensionality", ["1d", "2d"])
    def test_matches_reference_on_awkward_sizes(self, m, r, dimensionality):
        """Image sizes that are not multiples of the tile size still work."""
        scenario = ConvScenario(c=3, h=11, w=13, stride=1, k=r, m=4, padding=r // 2)
        if dimensionality == "2d":
            primitive = Winograd2DPrimitive(name="w2", tile=m, kernel_size=r)
        else:
            primitive = Winograd1DPrimitive(name="w1", tile=m, kernel_size=r)
        rng = np.random.default_rng(m * 7 + r)
        x = rng.standard_normal(scenario.input_shape).astype(np.float32)
        kernel = rng.standard_normal(scenario.kernel_shape).astype(np.float32)
        reference = reference_convolution(x, kernel, scenario)
        output = primitive.execute(
            LayoutTensor.from_chw(x, primitive.input_layout), kernel, scenario
        )
        np.testing.assert_allclose(output.to_chw(), reference, rtol=1e-4, atol=1e-4)

    def test_supports_only_matching_kernel_and_unit_stride(self):
        primitive = Winograd2DPrimitive(name="w", tile=2, kernel_size=3)
        assert primitive.supports(ConvScenario(c=4, h=8, w=8, k=3, m=4, padding=1))
        assert not primitive.supports(ConvScenario(c=4, h=8, w=8, k=5, m=4, padding=2))
        assert not primitive.supports(
            ConvScenario(c=4, h=8, w=8, k=3, m=4, padding=1, stride=2)
        )

    def test_1d_needs_fewer_workspace_elements_than_2d(self):
        """The low-memory property the paper attributes to the 1D form."""
        scenario = ConvScenario(c=256, h=13, w=13, stride=1, k=3, m=384, padding=1)
        two_d = Winograd2DPrimitive(name="w2", tile=2, kernel_size=3)
        one_d = Winograd1DPrimitive(name="w1", tile=2, kernel_size=3)
        assert one_d.workspace_elements(scenario) < two_d.workspace_elements(scenario)
        assert one_d.inner_working_set_elements(scenario) < two_d.inner_working_set_elements(
            scenario
        )

    def test_1d_performs_more_operations_than_2d(self):
        """...at the cost of more floating point operations (paper section 4)."""
        scenario = ConvScenario(c=256, h=13, w=13, stride=1, k=3, m=384, padding=1)
        two_d = Winograd2DPrimitive(name="w2", tile=2, kernel_size=3)
        one_d = Winograd1DPrimitive(name="w1", tile=2, kernel_size=3)
        assert one_d.arithmetic_ops(scenario) > two_d.arithmetic_ops(scenario)

    def test_2d_performs_fewer_ops_than_textbook(self):
        scenario = ConvScenario(c=64, h=28, w=28, stride=1, k=3, m=64, padding=1)
        primitive = Winograd2DPrimitive(name="w", tile=4, kernel_size=3)
        assert primitive.arithmetic_ops(scenario) < scenario.flops()

    def test_larger_tiles_reduce_elementwise_work(self):
        scenario = ConvScenario(c=64, h=56, w=56, stride=1, k=3, m=64, padding=1)
        small = Winograd2DPrimitive(name="a", tile=2, kernel_size=3)
        large = Winograd2DPrimitive(name="b", tile=4, kernel_size=3)
        assert large.arithmetic_ops(scenario) < small.arithmetic_ops(scenario)

    def test_grouped_convolution_correct(self):
        scenario = ConvScenario(c=4, h=10, w=10, stride=1, k=3, m=6, padding=1, groups=2)
        primitive = Winograd2DPrimitive(name="w", tile=2, kernel_size=3)
        rng = np.random.default_rng(11)
        x = rng.standard_normal(scenario.input_shape).astype(np.float32)
        kernel = rng.standard_normal(scenario.kernel_shape).astype(np.float32)
        reference = reference_convolution(x, kernel, scenario)
        output = primitive.execute(LayoutTensor.from_chw(x, primitive.input_layout), kernel, scenario)
        np.testing.assert_allclose(output.to_chw(), reference, rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize("m,r", TILE_KERNEL_PAIRS)
    @pytest.mark.parametrize("size", [(5, 5), (8, 9), (11, 13), (16, 20)])
    def test_1d_strided_gather_is_bit_identical_to_loop_gather(self, m, r, size):
        h, w = size
        scenario = ConvScenario(c=3, h=h, w=w, stride=1, k=r, m=4, padding=r // 2)
        primitive = Winograd1DPrimitive(name="w1", tile=m, kernel_size=r)
        rng = np.random.default_rng(h * 100 + w)
        x = rng.standard_normal(scenario.input_shape).astype(np.float32)
        kernel = rng.standard_normal(scenario.kernel_shape).astype(np.float32)
        padded, inner = _pad_scenario(x, scenario)
        assert np.array_equal(
            primitive._compute(padded, kernel, inner),
            _loop_gathered_1d(primitive, padded, kernel, inner),
        )

    @settings(max_examples=40, deadline=None)
    @given(case=winograd_cases())
    def test_matches_reference_and_sum2d_on_random_scenarios(self, case):
        m, scenario, seed = case
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(scenario.input_shape).astype(np.float32)
        kernel = rng.standard_normal(scenario.kernel_shape).astype(np.float32)
        reference = reference_convolution(x, kernel, scenario)
        # At int8 both sum the same quantized integers in float64 (a float64
        # input keeps the output unrounded); only the fractional Winograd
        # transforms round.
        int8 = replace(scenario, dtype="int8")
        x64 = x.astype(np.float64)
        sum2d = Sum2DPrimitive()
        exact = sum2d.execute(LayoutTensor.from_chw(x64, sum2d.input_layout), kernel, int8).to_chw()

        for kind in (Winograd2DPrimitive, Winograd1DPrimitive):
            primitive = kind(name="w", tile=m, kernel_size=scenario.k)
            tensor = LayoutTensor.from_chw(x, primitive.input_layout)
            output = primitive.execute(tensor, kernel, scenario).to_chw()
            np.testing.assert_allclose(output, reference, rtol=1e-4, atol=1e-4)

            tensor = LayoutTensor.from_chw(x64, primitive.input_layout)
            quantized = primitive.execute(tensor, kernel, int8).to_chw()
            assert quantized.dtype == np.float64
            assert np.abs(quantized - exact).max() <= 1e-9 * np.abs(exact).max()
