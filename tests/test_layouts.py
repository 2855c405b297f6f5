"""Tests for layouts and layout tensors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layouts.layout import (
    CHW,
    CHW4c,
    CHW8c,
    HCW,
    HWC,
    HWC8c,
    WHC,
    STANDARD_LAYOUTS,
    Layout,
    get_layout,
    make_layout,
)
from repro.layouts.tensor import LayoutTensor


class TestLayout:
    def test_standard_layouts_registered(self):
        assert set(STANDARD_LAYOUTS) == {
            "CHW",
            "HWC",
            "HCW",
            "WHC",
            "CHWc4",
            "CHWc8",
            "HWCc4",
            "HWCc8",
        }

    def test_get_layout_roundtrip(self):
        for name, layout in STANDARD_LAYOUTS.items():
            assert get_layout(name) is layout

    def test_get_layout_unknown_raises(self):
        with pytest.raises(KeyError):
            get_layout("NHWC")

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            Layout(name="bad", order=("C", "C", "W"))

    def test_invalid_block_rejected(self):
        with pytest.raises(ValueError):
            Layout(name="bad", order=("C", "H", "W"), channel_block=0)

    def test_axis_position(self):
        assert CHW.axis_position("C") == 0
        assert HWC.axis_position("C") == 2
        assert HCW.axis_position("C") == 1

    def test_physical_shape_permutation(self):
        assert CHW.physical_shape(3, 5, 7) == (3, 5, 7)
        assert HWC.physical_shape(3, 5, 7) == (5, 7, 3)
        assert WHC.physical_shape(3, 5, 7) == (7, 5, 3)

    def test_physical_shape_blocked_pads_channels(self):
        # 5 channels with block 4 -> 2 blocks of 4.
        assert CHW4c.physical_shape(5, 6, 7) == (2, 6, 7, 4)
        assert CHW8c.physical_shape(8, 6, 7) == (1, 6, 7, 8)
        assert HWC8c.physical_shape(9, 2, 3) == (2, 3, 2, 8)

    def test_physical_shape_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CHW.physical_shape(0, 4, 4)

    def test_element_count_includes_padding(self):
        assert CHW.element_count(5, 6, 7) == 5 * 6 * 7
        assert CHW4c.element_count(5, 6, 7) == 8 * 6 * 7

    @settings(max_examples=200, deadline=None)
    @given(
        layout=st.sampled_from(
            list(STANDARD_LAYOUTS.values())
            + [
                make_layout(("W", "C", "H"), channel_block=3),
                make_layout(("H", "C", "W"), channel_block=16),
            ]
        ),
        c=st.integers(1, 300),
        h=st.integers(1, 64),
        w=st.integers(1, 64),
    )
    def test_element_count_is_the_product_of_the_physical_shape(self, layout, c, h, w):
        assert layout.element_count(c, h, w) == int(np.prod(layout.physical_shape(c, h, w)))

    @given(
        layout=st.sampled_from(list(STANDARD_LAYOUTS.values())),
        dims=st.tuples(st.integers(-3, 4), st.integers(-3, 4), st.integers(-3, 4)).filter(
            lambda dims: min(dims) <= 0
        ),
    )
    def test_element_count_rejects_nonpositive(self, layout, dims):
        with pytest.raises(ValueError, match="must be positive"):
            layout.element_count(*dims)

    def test_is_blocked(self):
        assert not CHW.is_blocked
        assert CHW8c.is_blocked

    def test_make_layout_names(self):
        assert make_layout(("C", "H", "W")).name == "CHW"
        assert make_layout(("H", "W", "C"), channel_block=4).name == "HWCc4"

    def test_layouts_hashable_and_equal_by_value(self):
        assert make_layout(("C", "H", "W")) == CHW
        assert len({CHW, HWC, CHW}) == 2


class TestLayoutTensor:
    @pytest.mark.parametrize("layout", list(STANDARD_LAYOUTS.values()), ids=lambda l: l.name)
    def test_roundtrip_all_layouts(self, layout, rng):
        x = rng.standard_normal((5, 7, 9)).astype(np.float32)
        tensor = LayoutTensor.from_chw(x, layout)
        assert tensor.data.shape == layout.physical_shape(5, 7, 9)
        np.testing.assert_allclose(tensor.to_chw(), x)

    def test_from_chw_rejects_wrong_ndim(self, rng):
        with pytest.raises(ValueError):
            LayoutTensor.from_chw(rng.standard_normal((4, 4)), CHW)

    def test_constructor_validates_physical_shape(self, rng):
        bad = rng.standard_normal((3, 4, 5)).astype(np.float32)
        with pytest.raises(ValueError):
            LayoutTensor(data=bad, layout=HWC, logical_shape=(3, 4, 5))

    def test_zeros(self):
        tensor = LayoutTensor.zeros((3, 4, 5), CHW8c)
        assert tensor.data.shape == (1, 4, 5, 8)
        assert tensor.to_chw().shape == (3, 4, 5)
        assert np.count_nonzero(tensor.data) == 0

    def test_convert_between_layouts(self, rng):
        x = rng.standard_normal((6, 8, 10)).astype(np.float32)
        tensor = LayoutTensor.from_chw(x, CHW)
        converted = tensor.convert(HWC8c)
        assert converted.layout == HWC8c
        np.testing.assert_allclose(converted.to_chw(), x)

    def test_convert_same_layout_copies(self, rng):
        x = rng.standard_normal((2, 3, 4)).astype(np.float32)
        tensor = LayoutTensor.from_chw(x, HWC)
        copy = tensor.convert(HWC)
        assert copy.data is not tensor.data
        np.testing.assert_allclose(copy.to_chw(), x)

    def test_properties(self, rng):
        x = rng.standard_normal((2, 3, 4)).astype(np.float32)
        tensor = LayoutTensor.from_chw(x, HCW)
        assert tensor.channels == 2
        assert tensor.height == 3
        assert tensor.width == 4
        assert tensor.dtype == np.float32

    def test_allclose(self, rng):
        x = rng.standard_normal((3, 4, 5)).astype(np.float32)
        a = LayoutTensor.from_chw(x, CHW)
        b = LayoutTensor.from_chw(x, HWC8c)
        assert a.allclose(b)
        c = LayoutTensor.from_chw(x + 1.0, CHW)
        assert not a.allclose(c)

    def test_allclose_shape_mismatch(self, rng):
        a = LayoutTensor.from_chw(rng.standard_normal((2, 3, 4)).astype(np.float32), CHW)
        b = LayoutTensor.from_chw(rng.standard_normal((2, 3, 5)).astype(np.float32), CHW)
        assert not a.allclose(b)

    def test_blocked_padding_is_zero(self, rng):
        x = rng.standard_normal((3, 2, 2)).astype(np.float32)
        tensor = LayoutTensor.from_chw(x, CHW8c)
        # Channels 3..7 of the single block must be zero padding.
        block = tensor.data[0]  # (H, W, 8)
        assert np.count_nonzero(block[:, :, 3:]) == 0

    @settings(max_examples=30, deadline=None)
    @given(
        c=st.integers(min_value=1, max_value=12),
        h=st.integers(min_value=1, max_value=10),
        w=st.integers(min_value=1, max_value=10),
        layout_name=st.sampled_from(sorted(STANDARD_LAYOUTS)),
    )
    def test_roundtrip_property(self, c, h, w, layout_name):
        """Converting to any layout and back preserves the logical tensor."""
        layout = STANDARD_LAYOUTS[layout_name]
        rng = np.random.default_rng(c * 1000 + h * 100 + w)
        x = rng.standard_normal((c, h, w)).astype(np.float32)
        np.testing.assert_allclose(LayoutTensor.from_chw(x, layout).to_chw(), x)

    @settings(max_examples=20, deadline=None)
    @given(
        source=st.sampled_from(sorted(STANDARD_LAYOUTS)),
        target=st.sampled_from(sorted(STANDARD_LAYOUTS)),
    )
    def test_convert_property(self, source, target):
        """Conversion between any pair of layouts preserves the logical tensor."""
        rng = np.random.default_rng(hash((source, target)) % (2**32))
        x = rng.standard_normal((5, 6, 7)).astype(np.float32)
        tensor = LayoutTensor.from_chw(x, STANDARD_LAYOUTS[source])
        converted = tensor.convert(STANDARD_LAYOUTS[target])
        np.testing.assert_allclose(converted.to_chw(), x)
