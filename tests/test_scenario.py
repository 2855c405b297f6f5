"""Tests for convolutional scenarios."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.scenario import ConvScenario


class TestValidation:
    def test_basic_construction(self):
        s = ConvScenario(c=3, h=227, w=227, stride=4, k=11, m=96)
        assert s.input_shape == (3, 227, 227)
        assert s.kernel_shape == (96, 3, 11, 11)

    @pytest.mark.parametrize("field", ["c", "h", "w", "stride", "k", "m", "groups"])
    def test_nonpositive_fields_rejected(self, field):
        kwargs = dict(c=3, h=8, w=8, stride=1, k=3, m=4, padding=0, groups=1)
        kwargs[field] = 0
        with pytest.raises(ValueError):
            ConvScenario(**kwargs)

    def test_negative_padding_rejected(self):
        with pytest.raises(ValueError):
            ConvScenario(c=3, h=8, w=8, k=3, m=4, padding=-1)

    def test_groups_must_divide_channels(self):
        with pytest.raises(ValueError):
            ConvScenario(c=3, h=8, w=8, k=3, m=4, groups=2)
        with pytest.raises(ValueError):
            ConvScenario(c=4, h=8, w=8, k=3, m=3, groups=2)

    def test_kernel_must_fit_in_padded_input(self):
        with pytest.raises(ValueError):
            ConvScenario(c=3, h=2, w=2, k=5, m=4, padding=0)
        # With enough padding the same kernel fits.
        ConvScenario(c=3, h=2, w=2, k=5, m=4, padding=2)


class TestGeometry:
    def test_alexnet_conv1_geometry(self):
        s = ConvScenario(c=3, h=227, w=227, stride=4, k=11, m=96)
        assert s.output_shape == (96, 55, 55)

    def test_same_padding_preserves_size(self):
        s = ConvScenario(c=16, h=14, w=14, stride=1, k=3, m=32, padding=1)
        assert s.out_h == 14 and s.out_w == 14

    @settings(max_examples=60, deadline=None)
    @given(
        size=st.integers(1, 40),
        k=st.integers(1, 7),
        stride=st.integers(1, 4),
        padding=st.integers(0, 3),
    )
    def test_output_geometry_is_derived_once_and_is_not_a_field(self, size, k, stride, padding):
        if k > size + 2 * padding:
            return
        s = ConvScenario(c=2, h=size, w=size + 1, k=k, m=2, stride=stride, padding=padding)
        assert s.out_h == (size + 2 * padding - k) // stride + 1
        assert s.out_w == (size + 1 + 2 * padding - k) // stride + 1
        assert {"out_h", "out_w"}.isdisjoint(f.name for f in dataclasses.fields(s))
        taller = dataclasses.replace(s, h=size + stride)
        assert taller.out_h == s.out_h + 1 and taller.out_w == s.out_w

    def test_pointwise_and_strided_flags(self):
        assert ConvScenario(c=4, h=8, w=8, k=1, m=4).is_pointwise
        assert not ConvScenario(c=4, h=8, w=8, k=3, m=4, padding=1).is_pointwise
        assert ConvScenario(c=4, h=8, w=8, k=3, m=4, padding=1, stride=2).is_strided

    def test_macs_matches_textbook_formula(self):
        s = ConvScenario(c=8, h=10, w=12, stride=1, k=3, m=16, padding=1)
        assert s.macs() == 10 * 12 * 8 * 9 * 16
        assert s.flops() == 2 * s.macs()

    def test_grouped_macs_divide_channels(self):
        full = ConvScenario(c=8, h=10, w=10, k=3, m=16, padding=1)
        grouped = ConvScenario(c=8, h=10, w=10, k=3, m=16, padding=1, groups=2)
        assert grouped.macs() == full.macs() // 2

    def test_element_counts(self):
        s = ConvScenario(c=2, h=4, w=4, k=3, m=3, padding=1)
        assert s.input_elements() == 2 * 4 * 4
        assert s.output_elements() == 3 * 4 * 4
        assert s.kernel_elements() == 3 * 2 * 9

    def test_with_batch_scales_work(self):
        s = ConvScenario(c=4, h=8, w=8, k=3, m=8, padding=1)
        batched = s.with_batch(4)
        assert batched.macs() == 4 * s.macs()
        with pytest.raises(ValueError):
            s.with_batch(0)

    def test_with_batch_of_the_same_batch_is_the_same_scenario(self):
        s = ConvScenario(c=4, h=8, w=8, k=3, m=8, padding=1)
        assert s.with_batch(1) is s
        batched = s.with_batch(4)
        assert batched.with_batch(4) is batched
        assert batched.with_batch(1) == s
        for scenario in (s, batched):
            with pytest.raises(ValueError):
                scenario.with_batch(0)

    def test_with_batch_is_exact_for_strided_scenarios(self):
        # Regression: the old stub folded the batch into the image height,
        # which lets stride-2 windows straddle image boundaries — the issue's
        # example scenario costs 7776 MACs for 4 images, not 8424.
        s = ConvScenario(c=3, h=7, w=7, k=3, stride=2, m=8)
        assert s.macs() == 1944
        assert s.with_batch(4).macs() == 4 * s.macs() == 7776

    def test_with_batch_is_exact_for_padded_scenarios(self):
        # Padding applies per image; height folding would also pad between
        # the stacked images and overcount the boundary windows.
        s = ConvScenario(c=4, h=9, w=9, k=3, stride=2, m=8, padding=1)
        for n in (2, 3, 16):
            assert s.with_batch(n).macs() == n * s.macs()

    def test_with_batch_keeps_per_image_geometry(self):
        s = ConvScenario(c=4, h=8, w=8, k=3, m=8, padding=1)
        batched = s.with_batch(8)
        assert batched.output_shape == s.output_shape
        assert batched.input_shape == s.input_shape
        assert batched.batched_input_shape == (8, 4, 8, 8)
        assert batched.batched_output_shape == (8,) + s.output_shape
        assert batched.kernel_elements() == s.kernel_elements()
        assert batched.input_elements() == 8 * s.input_elements()
        assert batched.output_elements() == 8 * s.output_elements()
        assert batched.is_batched and not s.is_batched
        assert batched.per_image == s
        assert s.per_image is s

    def test_describe_mentions_all_fields(self):
        s = ConvScenario(c=4, h=8, w=9, stride=2, k=3, m=8, padding=1, groups=2, batch=4)
        text = s.describe()
        for token in (
            "C=4", "H=8", "W=9", "stride=2", "K=3", "M=8", "pad=1", "groups=2", "N=4",
        ):
            assert token in text
        assert "N=" not in s.per_image.describe()

    def test_frozen(self):
        s = ConvScenario(c=4, h=8, w=8, k=3, m=8, padding=1)
        with pytest.raises(AttributeError):
            s.c = 5  # type: ignore[misc]


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        c=st.integers(1, 64),
        size=st.integers(4, 48),
        stride=st.integers(1, 4),
        k=st.sampled_from([1, 3, 5, 7]),
        m=st.integers(1, 64),
        padding=st.integers(0, 3),
    )
    def test_output_dimensions_always_positive(self, c, size, stride, k, m, padding):
        if k > size + 2 * padding:
            with pytest.raises(ValueError):
                ConvScenario(c=c, h=size, w=size, stride=stride, k=k, m=m, padding=padding)
            return
        s = ConvScenario(c=c, h=size, w=size, stride=stride, k=k, m=m, padding=padding)
        assert s.out_h >= 1 and s.out_w >= 1
        assert s.macs() > 0
        # The output never exceeds the padded input extent.
        assert s.out_h <= size + 2 * padding
        assert (s.out_h - 1) * stride + k <= size + 2 * padding

    @settings(max_examples=30, deadline=None)
    @given(stride=st.integers(1, 4))
    def test_larger_stride_never_increases_work(self, stride):
        base = ConvScenario(c=8, h=32, w=32, stride=stride, k=3, m=8, padding=1)
        faster = ConvScenario(c=8, h=32, w=32, stride=stride + 1, k=3, m=8, padding=1)
        assert faster.macs() <= base.macs()
