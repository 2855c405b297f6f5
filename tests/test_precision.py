"""Acceptance of the precision axis: dtype threaded scenario → frontier.

The executable claims: every primitive's quantized compute path matches the
fp32 reference within its precision's declared tolerance; capability gating
holds (FFT declines int8, Winograd carries the int8 accuracy penalty); the
analytical model prices lane packing and conversion boundaries; the store
never aliases precisions on disk and evicts foreign-format entries; and the
multi-precision frontier is deterministic with an int8 min-time point and
the fp32 max-accuracy point.
"""

import json

import numpy as np
import pytest

from repro.api import Session
from repro.cost.analytical import (
    DTYPE_ACCURACY_LOSS,
    WINOGRAD_INT8_PENALTY,
    AnalyticalCostModel,
)
from repro.cost.platform import PLATFORMS
from repro.cost.store import CostStore
from repro.graph.scenario import DTYPES, ConvScenario
from repro.layouts.tensor import (
    LayoutTensor,
    dequantize,
    fp16_round_trip,
    quantize_symmetric,
)
from repro.primitives.base import PrimitiveFamily
from repro.primitives.reference import reference_convolution
from tests.conftest import layer_rows

#: Declared per-precision tolerance: max |out - ref| <= tol * max |ref|.
TOLERANCES = {"fp32": 1e-5, "fp16": 0.01, "int8": 0.1}

SCENARIOS = {
    "small": ConvScenario(c=4, h=12, w=12, stride=1, k=3, m=6, padding=1),
    "pointwise": ConvScenario(c=8, h=10, w=10, stride=1, k=1, m=8),
    "strided": ConvScenario(c=3, h=13, w=13, stride=2, k=5, m=4, padding=2),
    "depthwise": ConvScenario(c=6, h=12, w=12, stride=1, k=3, m=6, padding=1, groups=6),
}


def within_tolerance(out: np.ndarray, ref: np.ndarray, tol: float) -> bool:
    return float(np.max(np.abs(out - ref))) <= tol * float(np.max(np.abs(ref)))


class TestScenarioAxis:
    def test_default_is_fp32(self, small_scenario):
        assert small_scenario.dtype == "fp32"
        assert small_scenario.itemsize == 4
        assert not small_scenario.is_quantized

    def test_with_dtype(self, small_scenario):
        for dtype, itemsize in (("fp16", 2), ("int8", 1)):
            narrow = small_scenario.with_dtype(dtype)
            assert narrow.dtype == dtype
            assert narrow.itemsize == itemsize
            assert narrow.is_quantized
            assert dtype in narrow.describe()
        assert small_scenario.with_dtype("fp32") == small_scenario

    def test_unknown_dtype_rejected(self, small_scenario):
        with pytest.raises(ValueError, match="dtype"):
            small_scenario.with_dtype("bf16")


class TestQuantizationHelpers:
    def test_symmetric_int8_round_trip(self, rng):
        x = rng.standard_normal((4, 9, 9)).astype(np.float32)
        q, scale = quantize_symmetric(x)
        assert q.dtype == np.int8
        assert int(np.max(np.abs(q.astype(np.int32)))) <= 127
        assert within_tolerance(dequantize(q, scale), x, TOLERANCES["int8"])

    def test_quantize_zero_tensor(self):
        q, scale = quantize_symmetric(np.zeros((2, 3, 3), dtype=np.float32))
        assert np.all(q == 0) and scale > 0

    def test_fp16_round_trip(self, rng):
        x = rng.standard_normal((4, 9, 9)).astype(np.float32)
        assert within_tolerance(fp16_round_trip(x), x, TOLERANCES["fp16"])


class TestPrimitiveDtypeExecution:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
    def test_every_applicable_primitive_matches_fp32_reference(
        self, library, scenario_name, dtype
    ):
        """Claim (c): quantized outputs stay within the declared tolerance."""
        scenario = SCENARIOS[scenario_name].with_dtype(dtype)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(scenario.input_shape).astype(np.float32)
        kernel = rng.standard_normal(scenario.kernel_shape).astype(np.float32)
        reference = reference_convolution(x, kernel, scenario.with_dtype("fp32"))
        checked = 0
        for primitive in library:
            if not primitive.supports(scenario):
                continue
            tensor = LayoutTensor.from_chw(x, primitive.input_layout)
            out = primitive.execute(tensor, kernel, scenario)
            assert within_tolerance(
                out.to_logical(), reference, TOLERANCES[dtype]
            ), f"{primitive.name} at {dtype} on {scenario_name}"
            checked += 1
        assert checked > 0

    def test_fft_declines_int8(self, library):
        ffts = list(library.by_family(PrimitiveFamily.FFT))
        assert ffts
        for primitive in ffts:
            assert primitive.supports_dtype("fp16")
            assert not primitive.supports_dtype("int8")
            assert not primitive.supports(SCENARIOS["small"].with_dtype("int8"))

    def test_every_other_family_keeps_an_int8_path(self, library):
        int8 = SCENARIOS["small"].with_dtype("int8")
        families_with_int8 = {
            primitive.family for primitive in library if primitive.supports(int8)
        }
        assert PrimitiveFamily.FFT not in families_with_int8
        assert {
            PrimitiveFamily.DIRECT,
            PrimitiveFamily.IM2,
            PrimitiveFamily.WINOGRAD,
        } <= families_with_int8


class TestPrecisionPricing:
    @pytest.fixture(scope="class")
    def vnni_model(self):
        return AnalyticalCostModel(PLATFORMS["avx512-server"])

    def test_lane_packing_rates(self, vnni_model):
        assert vnni_model._precision_rate("fp32") == 1.0
        assert vnni_model._precision_rate("int8") == 4.0
        gpu = AnalyticalCostModel(PLATFORMS["gpu-sim"])
        assert gpu._precision_rate("fp16") == 2.0
        arm = AnalyticalCostModel(PLATFORMS["arm-cortex-a57"])
        assert arm._precision_rate("int8") == 4.0
        haswell = AnalyticalCostModel(PLATFORMS["intel-haswell"])
        # No vnni/fp16-fast on Haswell: narrow types move less data but the
        # ALUs run at the fp32 rate.
        assert haswell._precision_rate("fp16") == 1.0
        assert haswell._precision_rate("int8") == 1.0

    def test_int8_undercuts_fp32_on_vnni(self, library, vnni_model):
        scenario = ConvScenario(c=64, h=28, w=28, stride=1, k=3, m=64, padding=1)
        primitive = library.get("im2col_bt_vf8")
        fp32 = layer_rows(vnni_model, [primitive], scenario)[0][0]
        int8 = layer_rows(vnni_model, [primitive], scenario.with_dtype("int8"))[0][0]
        assert int8 < fp32

    def test_accuracy_loss_model(self, library, vnni_model):
        gemm = library.get("im2col_bt_vf8")
        winograd = next(iter(library.by_family(PrimitiveFamily.WINOGRAD)))
        scenario = SCENARIOS["small"]
        assert layer_rows(vnni_model, [gemm], scenario)[0][3] == 0.0
        int8 = scenario.with_dtype("int8")
        assert layer_rows(vnni_model, [gemm], int8)[0][3] == DTYPE_ACCURACY_LOSS["int8"]
        assert layer_rows(vnni_model, [winograd], int8)[0][3] == pytest.approx(
            WINOGRAD_INT8_PENALTY * DTYPE_ACCURACY_LOSS["int8"]
        )

    def test_layout_transforms_scale_with_itemsize(self, vnni_model, dt_graph):
        transform = next(iter(t for t in dt_graph.transforms if t.source.name == "CHW"))
        shape = (32, 28, 28)
        fp32 = vnni_model.transform_cost(transform, shape)
        int8 = vnni_model.transform_cost(transform, shape, dtype="int8")
        assert int8 < fp32


class TestStoreNeverAliasesPrecisions:
    def test_three_dtypes_three_disk_entries(self, tmp_path):
        session = Session(cache_dir=str(tmp_path))
        for dtype in DTYPES:
            session.context_for("alexnet", "intel-haswell", dtype=dtype)
        store = CostStore(tmp_path)
        assert store.stats().entries == len(DTYPES)
        paths = sorted(str(path.name) for path in tmp_path.rglob("*.json"))
        assert len(paths) == len(set(paths)) == len(DTYPES)
        for dtype in DTYPES:
            assert any(dtype in name for name in paths), paths

    def test_tables_round_trip_their_dtype(self, tmp_path):
        first = Session(cache_dir=str(tmp_path))
        warm = first.context_for("alexnet", "intel-haswell", dtype="int8")
        second = Session(cache_dir=str(tmp_path))
        cold = second.context_for("alexnet", "intel-haswell", dtype="int8")
        assert cold.tables.dtype == "int8"
        assert warm.tables.node_costs == cold.tables.node_costs
        assert warm.tables.node_accuracy == cold.tables.node_accuracy

    def test_cache_evict_drops_foreign_format_entries(self, tmp_path, capsys):
        from repro.cli import main

        session = Session(cache_dir=str(tmp_path))
        session.context_for("alexnet", "intel-haswell")
        stale = tmp_path / "aaaaaaaa_old_1t_b1_0123456789abcdef.json"
        stale.write_text(
            json.dumps({"format": "repro/cost-store-entry/v4", "payload": {}})
        )
        assert main(["cache", "--cache-dir", str(tmp_path), "--evict"]) == 0
        assert not stale.exists()
        assert CostStore(tmp_path).stats().entries == 1


class TestPlannedExecutionAcrossPrecisions:
    @pytest.mark.parametrize("dtype", ["fp16", "int8"])
    def test_quantized_plan_matches_fp32_reference(self, tiny_network, dtype):
        session = Session()
        x = np.random.default_rng(5).standard_normal((3, 32, 32)).astype(np.float32)
        reference = session.plan(tiny_network, "avx512-server", strategy="sum2d")
        quantized = session.plan(tiny_network, "avx512-server", dtype=dtype)
        assert quantized.network_plan.dtype == dtype
        out_ref = reference.execute(input=x, seed=3).output
        out = quantized.execute(input=x, seed=3).output
        # The graph softmaxes into [0, 1]; compare pre-normalized magnitudes
        # via the declared relative-to-peak tolerance.
        assert within_tolerance(out, out_ref, TOLERANCES[dtype])


class TestFrontierSpansPrecisions:
    @pytest.fixture(scope="class")
    def frontier(self):
        return Session().plan_frontier("alexnet", "avx512-server")

    def test_min_time_is_int8_and_max_accuracy_is_fp32(self, frontier):
        fastest = min(frontier.points, key=lambda p: p.vector.time_ms)
        assert fastest.plan.dtype == "int8"
        most_accurate = min(
            frontier.points, key=lambda p: (p.vector.accuracy_proxy, p.vector.time_ms)
        )
        assert most_accurate.plan.dtype == "fp32"
        assert most_accurate.vector.accuracy_proxy == 0.0

    def test_front_is_byte_identical_across_runs(self, frontier):
        again = Session().plan_frontier("alexnet", "avx512-server")
        assert json.dumps(frontier.to_dict(), sort_keys=True) == json.dumps(
            again.to_dict(), sort_keys=True
        )

    def test_restricting_dtypes_restricts_the_front(self):
        fp32_only = Session().plan_frontier("alexnet", "avx512-server", dtypes=("fp32",))
        assert {point.plan.dtype for point in fp32_only.points} == {"fp32"}
