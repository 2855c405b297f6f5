"""Numerical correctness and capability tests for the primitive library.

Every executable primitive is compared against the reference convolution on a
grid of scenarios covering unit and non-unit stride, 1x1/3x3/5x5/11x11
kernels, padding, grouping and non-square images.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.scenario import ConvScenario
from repro.layouts.layout import CHW
from repro.layouts.tensor import LayoutTensor
from repro.primitives import (
    PrimitiveFamily,
    Sum2DPrimitive,
    UnsupportedScenarioError,
    reference_convolution,
)
from repro.primitives.im2 import im2col_matrix, im2row_matrix

#: Scenarios chosen to exercise every capability dimension of the library.
CORRECTNESS_SCENARIOS = {
    "k3_pad": ConvScenario(c=4, h=12, w=12, stride=1, k=3, m=6, padding=1),
    "k3_nonsquare": ConvScenario(c=3, h=9, w=14, stride=1, k=3, m=5, padding=1),
    "k5_pad": ConvScenario(c=4, h=14, w=14, stride=1, k=5, m=3, padding=2),
    "k1_pointwise": ConvScenario(c=8, h=10, w=10, stride=1, k=1, m=5),
    "strided_k5": ConvScenario(c=3, h=13, w=11, stride=2, k=5, m=4, padding=2),
    "strided_k11": ConvScenario(c=3, h=19, w=19, stride=4, k=11, m=4),
    "grouped": ConvScenario(c=4, h=12, w=12, stride=1, k=3, m=6, padding=1, groups=2),
    "depthwise": ConvScenario(c=6, h=12, w=12, stride=1, k=3, m=6, padding=1, groups=6),
    "strided_depthwise": ConvScenario(
        c=6, h=13, w=13, stride=2, k=3, m=6, padding=1, groups=6
    ),
    "depthwise_multiplier": ConvScenario(
        c=4, h=10, w=10, stride=1, k=3, m=8, padding=1, groups=4
    ),
    "no_padding": ConvScenario(c=2, h=8, w=8, stride=1, k=3, m=3),
}


def _run_primitive(primitive, scenario, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(scenario.input_shape).astype(np.float32)
    kernel = rng.standard_normal(scenario.kernel_shape).astype(np.float32)
    reference = reference_convolution(x, kernel, scenario)
    tensor = LayoutTensor.from_chw(x, primitive.input_layout)
    output = primitive.execute(tensor, kernel, scenario)
    return output, reference


class TestLibraryContents:
    def test_more_than_seventy_primitives(self, library):
        assert len(library) > 70

    def test_every_family_represented(self, library):
        for family in PrimitiveFamily:
            assert library.by_family(family), f"family {family.value} is empty"

    def test_names_unique_and_lookup(self, library):
        names = library.names()
        assert len(names) == len(set(names))
        assert library.get("sum2d").family is PrimitiveFamily.SUM2D
        with pytest.raises(KeyError):
            library.get("not-a-primitive")

    def test_layouts_used_cover_blocked_and_permuted(self, library):
        names = {layout.name for layout in library.layouts_used()}
        assert {"CHW", "HWC", "HCW", "CHWc4", "CHWc8"} <= names

    def test_subset(self, library):
        subset = library.subset(["sum2d", "im2col_vf8"])
        assert len(subset) == 2
        assert "winograd_2d_m2_r3_vf8" not in subset

    def test_vector_factors_cover_platforms(self, library):
        factors = {p.vector_factor for p in library}
        assert {1, 4, 8} <= factors

    def test_traits_are_sane(self, library, small_scenario):
        for primitive in library:
            traits = primitive.traits()
            assert 0.0 <= traits.gemm_fraction <= 1.0
            assert 0.0 <= traits.locality <= 1.0
            assert 0.0 < traits.parallel_efficiency <= 1.0
            assert traits.per_call_overhead_ops >= 0.0

    def test_work_estimates_positive(self, library, small_scenario):
        for primitive in library:
            if not primitive.supports(small_scenario):
                continue
            assert primitive.arithmetic_ops(small_scenario) > 0
            assert primitive.workspace_elements(small_scenario) >= 0
            assert primitive.inner_working_set_elements(small_scenario) >= 0


class TestCapabilities:
    def test_strided_scenarios_reject_kn2_winograd_fft(self, library):
        strided = CORRECTNESS_SCENARIOS["strided_k11"]
        for family in (PrimitiveFamily.KN2, PrimitiveFamily.WINOGRAD, PrimitiveFamily.FFT):
            assert library.applicable(strided, family=family) == []

    def test_direct_and_im2_support_everything(self, library):
        for scenario in CORRECTNESS_SCENARIOS.values():
            assert library.applicable(scenario, family=PrimitiveFamily.DIRECT)
            assert library.applicable(scenario, family=PrimitiveFamily.IM2)

    def test_depthwise_scenarios_reject_kn2_and_fft(self, library):
        """kn2/FFT must decline ``groups == C`` scenarios, not miscost them."""
        for name in ("depthwise", "depthwise_multiplier"):
            scenario = CORRECTNESS_SCENARIOS[name]
            assert scenario.is_depthwise
            for family in (PrimitiveFamily.KN2, PrimitiveFamily.FFT):
                assert library.applicable(scenario, family=family) == [], (name, family)
            # The families that do claim depthwise keep their word below (the
            # correctness sweep runs every applicable primitive on it).
            for family in (
                PrimitiveFamily.SUM2D,
                PrimitiveFamily.DIRECT,
                PrimitiveFamily.IM2,
                PrimitiveFamily.WINOGRAD,
            ):
                assert library.applicable(scenario, family=family), (name, family)

    def test_merely_grouped_scenarios_keep_kn2_and_fft(self, library):
        """AlexNet-style groups=2 is not depthwise and stays fully supported."""
        grouped = CORRECTNESS_SCENARIOS["grouped"]
        assert grouped.is_grouped and not grouped.is_depthwise
        for family in (PrimitiveFamily.KN2, PrimitiveFamily.FFT):
            assert library.applicable(grouped, family=family)

    def test_winograd_requires_matching_kernel(self, library):
        k3 = CORRECTNESS_SCENARIOS["k3_pad"]
        k5 = CORRECTNESS_SCENARIOS["k5_pad"]
        k3_names = {p.name for p in library.applicable(k3, family=PrimitiveFamily.WINOGRAD)}
        k5_names = {p.name for p in library.applicable(k5, family=PrimitiveFamily.WINOGRAD)}
        assert all("r3" in name for name in k3_names)
        assert all("r5" in name for name in k5_names)
        assert k3_names and k5_names

    def test_executing_unsupported_scenario_raises(self, library):
        strided = CORRECTNESS_SCENARIOS["strided_k11"]
        winograd = library.get("winograd_2d_m2_r3_vf8")
        rng = np.random.default_rng(0)
        tensor = LayoutTensor.from_chw(
            rng.standard_normal(strided.input_shape).astype(np.float32), winograd.input_layout
        )
        kernel = rng.standard_normal(strided.kernel_shape).astype(np.float32)
        with pytest.raises(UnsupportedScenarioError):
            winograd.execute(tensor, kernel, strided)

    def test_wrong_layout_rejected(self, library, small_scenario):
        primitive = library.get("im2row_vf4")  # expects HWC
        rng = np.random.default_rng(0)
        tensor = LayoutTensor.from_chw(
            rng.standard_normal(small_scenario.input_shape).astype(np.float32), CHW
        )
        kernel = rng.standard_normal(small_scenario.kernel_shape).astype(np.float32)
        with pytest.raises(UnsupportedScenarioError):
            primitive.execute(tensor, kernel, small_scenario)

    def test_wrong_kernel_shape_rejected(self, library, small_scenario):
        primitive = library.get("sum2d")
        rng = np.random.default_rng(0)
        tensor = LayoutTensor.from_chw(
            rng.standard_normal(small_scenario.input_shape).astype(np.float32), CHW
        )
        with pytest.raises(ValueError):
            primitive.execute(tensor, np.zeros((2, 2, 3, 3), dtype=np.float32), small_scenario)

    def test_wrong_input_shape_rejected(self, library, small_scenario):
        primitive = library.get("sum2d")
        rng = np.random.default_rng(0)
        tensor = LayoutTensor.from_chw(rng.standard_normal((4, 10, 10)).astype(np.float32), CHW)
        kernel = rng.standard_normal(small_scenario.kernel_shape).astype(np.float32)
        with pytest.raises(ValueError):
            primitive.execute(tensor, kernel, small_scenario)


class TestNumericalCorrectness:
    @pytest.mark.parametrize("scenario_name", sorted(CORRECTNESS_SCENARIOS))
    def test_every_applicable_primitive_matches_reference(self, library, scenario_name):
        scenario = CORRECTNESS_SCENARIOS[scenario_name]
        applicable = library.applicable(scenario)
        assert applicable
        for primitive in applicable:
            output, reference = _run_primitive(primitive, scenario)
            np.testing.assert_allclose(
                output.to_chw(),
                reference,
                rtol=1e-3,
                atol=1e-3,
                err_msg=f"{primitive.name} disagrees on {scenario_name}",
            )
            assert output.layout == primitive.output_layout
            assert output.logical_shape == scenario.output_shape

    def test_sum2d_matches_reference_on_groups(self):
        scenario = CORRECTNESS_SCENARIOS["grouped"]
        output, reference = _run_primitive(Sum2DPrimitive(), scenario)
        np.testing.assert_allclose(output.to_chw(), reference, rtol=1e-4, atol=1e-5)

    @settings(max_examples=20, deadline=None)
    @given(
        c=st.integers(1, 6),
        m=st.integers(1, 6),
        size=st.integers(6, 14),
        k=st.sampled_from([1, 3, 5]),
        family_name=st.sampled_from(["im2", "kn2", "direct"]),
    )
    def test_gemm_families_match_reference_property(self, library, c, m, size, k, family_name):
        """Property test: GEMM-based families agree with the reference on random shapes."""
        padding = k // 2
        scenario = ConvScenario(c=c, h=size, w=size, stride=1, k=k, m=m, padding=padding)
        family = PrimitiveFamily(family_name)
        primitive = library.applicable(scenario, family=family)[0]
        output, reference = _run_primitive(primitive, scenario, seed=c * 100 + m)
        np.testing.assert_allclose(output.to_chw(), reference, rtol=1e-3, atol=1e-3)

    def test_convolution_is_linear_in_input(self, library, small_scenario):
        """conv(a*x + b*y) == a*conv(x) + b*conv(y) for a linear primitive."""
        primitive = library.get("im2col_vf8")
        rng = np.random.default_rng(5)
        kernel = rng.standard_normal(small_scenario.kernel_shape).astype(np.float32)
        x = rng.standard_normal(small_scenario.input_shape).astype(np.float32)
        y = rng.standard_normal(small_scenario.input_shape).astype(np.float32)

        def conv(array):
            return primitive.execute(
                LayoutTensor.from_chw(array, primitive.input_layout), kernel, small_scenario
            ).to_chw()

        combined = conv(2.0 * x - 3.0 * y)
        np.testing.assert_allclose(combined, 2.0 * conv(x) - 3.0 * conv(y), rtol=1e-3, atol=1e-3)

    def test_zero_kernel_gives_zero_output(self, library, small_scenario):
        primitive = library.get("winograd_2d_m2_r3_vf1")
        rng = np.random.default_rng(2)
        x = rng.standard_normal(small_scenario.input_shape).astype(np.float32)
        kernel = np.zeros(small_scenario.kernel_shape, dtype=np.float32)
        out = primitive.execute(
            LayoutTensor.from_chw(x, primitive.input_layout), kernel, small_scenario
        ).to_chw()
        np.testing.assert_allclose(out, 0.0, atol=1e-6)


class TestPatchMatrices:
    def test_im2col_matrix_shape_and_content(self):
        scenario = ConvScenario(c=2, h=5, w=5, stride=1, k=3, m=1)
        x = np.arange(2 * 5 * 5, dtype=np.float64).reshape(2, 5, 5)
        matrix = im2col_matrix(x, scenario)
        assert matrix.shape == (2 * 9, 9)
        # First column is the top-left 3x3 window of both channels flattened
        # in (C, kh, kw) order.
        expected_first = np.concatenate([x[0, :3, :3].reshape(-1), x[1, :3, :3].reshape(-1)])
        np.testing.assert_allclose(matrix[:, 0], expected_first)

    def test_im2row_matrix_shape(self):
        scenario = ConvScenario(c=3, h=6, w=6, stride=2, k=3, m=1)
        x = np.random.default_rng(0).standard_normal((3, 6, 6))
        matrix = im2row_matrix(x, scenario)
        assert matrix.shape == (scenario.out_h * scenario.out_w, 9 * 3)

    def test_workspace_matches_patch_matrix_size(self, library):
        scenario = ConvScenario(c=4, h=10, w=10, stride=1, k=3, m=8, padding=1)
        primitive = library.get("im2col_vf8")
        assert primitive.workspace_elements(scenario) == pytest.approx(
            scenario.out_h * scenario.out_w * scenario.k**2 * scenario.c
        )
