"""Batched execution: the real batch axis threaded through the whole system.

Covers the batching tentpole end to end:

* ``LayoutTensor`` round trips the ``(N, C, H, W)`` physical axis through
  every standard layout (blocked and unblocked);
* every primitive family executed on a batched scenario matches a per-image
  loop over the sum2d reference within 1e-4, including when the batched
  input arrives through a non-trivial layout-conversion chain;
* the executor runs batched forward passes that are numerically identical to
  independent single-image runs;
* ``Session.run(..., batch=n)`` matches ``n`` batch-1 runs, and the
  persistent cost store keys batch-1 and batch-n tables separately.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session
from repro.graph.scenario import ConvScenario
from repro.layouts.layout import CHW, HWC, STANDARD_LAYOUTS
from repro.layouts.tensor import LayoutTensor
from repro.primitives.base import PrimitiveFamily
from repro.primitives.reference import reference_convolution
from tests.conftest import layer_rows


# ---------------------------------------------------------------------------
# LayoutTensor with a batch axis
# ---------------------------------------------------------------------------


class TestLayoutTensorBatch:
    @pytest.mark.parametrize("layout_name", sorted(STANDARD_LAYOUTS))
    def test_nchw_round_trip(self, layout_name, rng):
        layout = STANDARD_LAYOUTS[layout_name]
        x = rng.standard_normal((3, 5, 6, 7)).astype(np.float32)
        tensor = LayoutTensor.from_nchw(x, layout)
        assert tensor.batch == 3
        assert tensor.logical_shape == (5, 6, 7)
        np.testing.assert_array_equal(tensor.to_nchw(), x)

    @pytest.mark.parametrize("layout_name", sorted(STANDARD_LAYOUTS))
    def test_batched_convert_preserves_contents(self, layout_name, rng):
        layout = STANDARD_LAYOUTS[layout_name]
        x = rng.standard_normal((2, 5, 4, 6)).astype(np.float32)
        converted = LayoutTensor.from_nchw(x, CHW).convert(layout)
        assert converted.batch == 2
        np.testing.assert_allclose(converted.to_nchw(), x, rtol=0, atol=0)
        # And back again.
        np.testing.assert_allclose(converted.convert(HWC).to_nchw(), x, rtol=0, atol=0)

    def test_batched_physical_shape_has_leading_n(self):
        t = LayoutTensor.zeros((8, 4, 4), STANDARD_LAYOUTS["CHWc8"], batch=5)
        assert t.data.shape == (5, 1, 4, 4, 8)

    def test_to_chw_rejects_batched_tensor(self, rng):
        t = LayoutTensor.from_nchw(rng.standard_normal((2, 3, 4, 4)), CHW)
        with pytest.raises(ValueError, match="batched"):
            t.to_chw()

    def test_to_nchw_rejects_single_image_tensor(self, rng):
        t = LayoutTensor.from_chw(rng.standard_normal((3, 4, 4)), CHW)
        with pytest.raises(ValueError, match="not batched"):
            t.to_nchw()

    def test_from_nchw_rejects_3d(self, rng):
        with pytest.raises(ValueError, match="4D"):
            LayoutTensor.from_nchw(rng.standard_normal((3, 4, 4)), CHW)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LayoutTensor(
                data=np.zeros((2, 3, 4, 4), dtype=np.float32),
                layout=CHW,
                logical_shape=(3, 4, 4),
                batch=3,
            )


# ---------------------------------------------------------------------------
# Batched primitives against the per-image reference
# ---------------------------------------------------------------------------

#: Scenarios exercising the axes that height-folding got wrong: stride,
#: padding and grouping, plus a plain one every family supports.
BATCH_SCENARIOS = [
    ConvScenario(c=4, h=12, w=12, stride=1, k=3, m=6, padding=1),
    ConvScenario(c=3, h=7, w=7, stride=2, k=3, m=8),
    ConvScenario(c=4, h=9, w=9, stride=1, k=3, m=8, padding=1, groups=2),
]


def _per_image_reference(x_nchw, kernel, scenario):
    """The oracle: a per-image loop over the textbook reference convolution."""
    return np.stack(
        [reference_convolution(x_nchw[i], kernel, scenario) for i in range(x_nchw.shape[0])]
    )


class TestBatchedPrimitives:
    @pytest.mark.parametrize("scenario", BATCH_SCENARIOS, ids=lambda s: s.describe())
    def test_every_family_matches_reference(self, library, scenario, rng):
        n = 3
        x = rng.standard_normal((n,) + scenario.input_shape).astype(np.float32)
        kernel = rng.standard_normal(scenario.kernel_shape).astype(np.float32)
        expected = _per_image_reference(x, kernel, scenario)
        families_seen = set()
        for primitive in library.applicable(scenario):
            tensor = LayoutTensor.from_nchw(x, primitive.input_layout)
            out = primitive.execute(tensor, kernel, scenario.with_batch(n))
            assert out.batch == n
            np.testing.assert_allclose(
                out.to_nchw(), expected, atol=1e-4, err_msg=primitive.name
            )
            families_seen.add(primitive.family)
        assert PrimitiveFamily.SUM2D in families_seen
        assert PrimitiveFamily.DIRECT in families_seen

    def test_all_six_families_covered_somewhere(self, library):
        """The unit-stride scenario must exercise every family in the library."""
        scenario = BATCH_SCENARIOS[0]
        families = {p.family for p in library.applicable(scenario)}
        assert families == set(PrimitiveFamily)

    def test_batched_execution_through_conversion_chain(self, library, dt_graph, rng):
        """Batched input arriving through a multi-hop conversion chain.

        The input starts in the WHC stress layout, which no primitive
        consumes directly, so reaching any primitive's input layout requires
        a chain of at least one (usually several) direct transforms.
        """
        scenario = BATCH_SCENARIOS[0]
        n = 2
        x = rng.standard_normal((n,) + scenario.input_shape).astype(np.float32)
        kernel = rng.standard_normal(scenario.kernel_shape).astype(np.float32)
        expected = _per_image_reference(x, kernel, scenario)
        start = STANDARD_LAYOUTS["WHC"]
        source = LayoutTensor.from_nchw(x, start)
        checked_multi_hop = 0
        for family in PrimitiveFamily:
            primitive = next(
                p for p in library.applicable(scenario) if p.family is family
            )
            path = dt_graph.shortest_path(start, primitive.input_layout, scenario.input_shape)
            assert path.reachable
            converted = path.chain.apply(source)
            out = primitive.execute(converted, kernel, scenario.with_batch(n))
            np.testing.assert_allclose(
                out.to_nchw(), expected, atol=1e-4, err_msg=primitive.name
            )
            if len(path.chain) > 1:
                checked_multi_hop += 1
        assert checked_multi_hop >= 1

    def test_batch_and_tensor_must_agree(self, library, rng):
        scenario = BATCH_SCENARIOS[0]
        primitive = next(iter(library.applicable(scenario)))
        kernel = rng.standard_normal(scenario.kernel_shape).astype(np.float32)
        batched = LayoutTensor.from_nchw(
            rng.standard_normal((2,) + scenario.input_shape).astype(np.float32),
            primitive.input_layout,
        )
        with pytest.raises(ValueError, match="batch"):
            primitive.execute(batched, kernel, scenario.with_batch(3))
        single = LayoutTensor.from_chw(
            rng.standard_normal(scenario.input_shape).astype(np.float32),
            primitive.input_layout,
        )
        with pytest.raises(ValueError, match="batch"):
            primitive.execute(single, kernel, scenario.with_batch(2))


# ---------------------------------------------------------------------------
# Batched whole-network execution
# ---------------------------------------------------------------------------


class TestBatchedExecutor:
    @pytest.fixture(scope="class")
    def session(self):
        return Session()

    def test_batched_run_matches_per_image_runs(self, tiny_network, intel):
        """A batch-4 forward pass equals four independent single-image passes."""
        session = Session()
        plan = session.plan(tiny_network, intel, batch=4)
        single_plan = session.plan(tiny_network, intel, batch=1)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)

        batched_out = plan.executor(seed=0).run(x)
        assert batched_out.shape[0] == 4
        for i in range(4):
            single_out = single_plan.executor(seed=0).run(x[i])
            np.testing.assert_allclose(batched_out[i], single_out, atol=1e-4)

    def test_session_run_batched_report(self, tiny_network, intel):
        session = Session()
        report = session.run(tiny_network, intel, batch=4, seed=3)
        assert report.batch == 4
        assert report.output.shape[0] == 4
        assert report.measured_per_image_ms == pytest.approx(
            report.measured_total_ms / 4
        )
        assert "batch 4" in report.format()

    def test_execute_rejects_input_batch_mismatch(self, tiny_network, intel):
        """The report compares against batch-priced predictions, so a
        mismatched explicit input must be rejected instead of silently
        skewing every predicted-vs-measured number."""
        session = Session()
        plan16 = session.plan(tiny_network, intel, batch=16)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="batch"):
            plan16.execute(input=rng.standard_normal((3, 32, 32)).astype(np.float32))
        with pytest.raises(ValueError, match="batch"):
            plan16.execute(input=rng.standard_normal((8, 3, 32, 32)).astype(np.float32))
        plan1 = session.plan(tiny_network, intel, batch=1)
        with pytest.raises(ValueError, match="batch"):
            plan1.execute(input=rng.standard_normal((4, 3, 32, 32)).astype(np.float32))

    def test_trace_accounts_conversions_per_image(self, tiny_network, intel):
        session = Session()
        plan = session.plan(tiny_network, intel, batch=2)
        x = np.random.default_rng(0).standard_normal((2, 3, 32, 32)).astype(np.float32)
        _, trace = plan.executor(seed=0).run_traced(x)
        assert trace.batch == 2
        per_image = trace.conversion_seconds_per_image
        assert set(per_image) == set(trace.conversion_seconds)
        for edge, seconds in per_image.items():
            assert seconds == pytest.approx(trace.conversion_seconds[edge] / 2)

    def test_acceptance_alexnet_style_batch4_equivalence(self, intel):
        """The issue's acceptance check on the tiny zoo-free network."""
        session = Session()
        report4 = session.run("alexnet", intel, batch=4, seed=1)
        plan1 = session.plan("alexnet", intel, batch=1)
        x = (
            np.random.default_rng(1)
            .standard_normal((4,) + plan1.input_shape())
            .astype(np.float32)
        )
        batched = session.plan("alexnet", intel, batch=4).executor(seed=1).run(x)
        for i in range(4):
            single = plan1.executor(seed=1).run(x[i])
            np.testing.assert_allclose(batched[i], single, atol=1e-4)
        assert report4.batch == 4


# ---------------------------------------------------------------------------
# Batched selection, caching and persistence
# ---------------------------------------------------------------------------


class TestBatchedSelection:
    def test_contexts_keyed_by_batch(self, tiny_network, intel):
        session = Session()
        session.plan(tiny_network, intel, batch=1, verify=False)
        session.plan(tiny_network, intel, batch=4, verify=False)
        assert session.cache_info().contexts == 2
        session.plan(tiny_network, intel, batch=4, verify=False)
        assert session.cache_info().hits == 1

    def test_batched_plan_costs_scale_with_batch(self, tiny_network, intel):
        session = Session()
        one = session.plan(tiny_network, intel, batch=1, verify=False)
        sixteen = session.plan(tiny_network, intel, batch=16, verify=False)
        assert sixteen.network_plan.batch == 16
        # Work grows with the batch, but amortized setup keeps it under 16x.
        assert sixteen.total_ms > one.total_ms
        assert sixteen.total_ms < 16.0 * one.total_ms
        assert sixteen.per_image_ms <= one.per_image_ms

    def test_store_keys_batches_separately(self, tiny_network, intel, tmp_path):
        session = Session(cache_dir=tmp_path)
        store = session.store
        assert store is not None
        session.plan(tiny_network, intel, batch=1, verify=False)
        session.plan(tiny_network, intel, batch=4, verify=False)
        entries = store.entries()
        assert len(entries) == 2
        assert sorted(entry.key.batch for entry in entries) == [1, 4]
        paths = {entry.path for entry in entries}
        assert len(paths) == 2

        # A fresh process (new session) over the same directory hits both.
        warm = Session(cache_dir=tmp_path)
        warm.plan(tiny_network, intel, batch=1, verify=False)
        warm.plan(tiny_network, intel, batch=4, verify=False)
        stats = warm.store.stats()
        assert stats.hits == 2 and stats.misses == 0

    def test_batched_tables_round_trip_scenario_batch(self, tiny_network, intel, tmp_path):
        session = Session(cache_dir=tmp_path)
        context = session.context_for(tiny_network, intel, batch=4)
        assert context.batch == 4
        assert all(s.batch == 4 for s in context.tables.scenarios.values())
        # Reload from disk: the batch survives serialization.
        warm = Session(cache_dir=tmp_path)
        reloaded = warm.context_for(tiny_network, intel, batch=4)
        assert reloaded.tables.batch == 4
        assert all(s.batch == 4 for s in reloaded.tables.scenarios.values())

    def test_plan_serialization_keeps_batch(self, tiny_network, intel, tmp_path):
        session = Session()
        plan = session.plan(tiny_network, intel, batch=8)
        path = tmp_path / "plan.json"
        plan.save(path)
        loaded = session.plan_from_file(path, network=tiny_network)
        assert loaded.network_plan.batch == 8

    def test_plans_group_by_batch(self, tiny_network, intel):
        session = Session()
        plans = [
            session.plan(tiny_network, intel, strategy=strategy, batch=batch, verify=False)
            for strategy, batch in [("pbqp", 1), ("pbqp", 4), ("sum2d", 4)]
        ]
        assert [plan.network_plan.batch for plan in plans] == [1, 4, 4]
        # Two distinct contexts (batch 1 and batch 4), three selections.
        assert session.cache_info().contexts == 2

    def test_compare_at_batch(self, tiny_network, intel):
        session = Session()
        report = session.compare(tiny_network, intel, batch=4)
        assert report.batch == 4
        assert all(plan.network_plan.batch == 4 for plan in report.results)
        assert report.baseline.network_plan.batch == 4
        assert "batch 4" in report.format()


# ---------------------------------------------------------------------------
# CostStore.clear()/stats() fixes
# ---------------------------------------------------------------------------


class TestCostStoreHygiene:
    def _populated_store(self, tiny_network, intel, tmp_path):
        session = Session(cache_dir=tmp_path)
        session.plan(tiny_network, intel, verify=False)
        return session.store

    def test_clear_removes_unparseable_and_old_format_files(
        self, tiny_network, intel, tmp_path
    ):
        store = self._populated_store(tiny_network, intel, tmp_path)
        (tmp_path / "corrupt.json").write_text("{not json")
        (tmp_path / "old-format.json").write_text('{"format": "repro/cost-store-entry/v0"}')
        (tmp_path / ".leftover-123.tmp").write_text("torn write")
        assert len(store.entries()) == 1  # entries() still only lists well-formed ones
        removed = store.clear()
        assert removed == 3  # the real entry plus both stale .json files
        assert list(tmp_path.glob("*.json")) == []
        assert list(tmp_path.glob(".*.tmp")) == []
        assert store.clear() == 0

    def test_stats_counts_files_without_parsing(self, tiny_network, intel, tmp_path):
        store = self._populated_store(tiny_network, intel, tmp_path)
        (tmp_path / "corrupt.json").write_text("{not json")
        stats = store.stats()
        assert stats.entries == 2  # file count, not parsed-entry count
        assert stats.misses == 1

    def test_cache_clear_reports_every_file(self, tiny_network, intel, tmp_path):
        """The CLI path: 'repro cache --clear' after a format bump is not a no-op."""
        from repro.cli import main

        store = self._populated_store(tiny_network, intel, tmp_path)
        # Simulate a format bump: rewrite the entry under an old format tag.
        (entry,) = store.entries()
        entry.path.write_text('{"format": "repro/cost-store-entry/v0"}')
        assert store.entries() == []  # the old behaviour counted these as zero
        exit_code = main(["cache", "--cache-dir", str(tmp_path), "--clear"])
        assert exit_code == 0
        assert list(tmp_path.glob("*.json")) == []


# ---------------------------------------------------------------------------
# Cost-model batch behaviour
# ---------------------------------------------------------------------------


class TestBatchedCosts:
    def test_costs_scale_sublinearly_but_monotonically(self, library, intel_cost_model):
        scenario = ConvScenario(c=8, h=14, w=14, stride=1, k=3, m=16, padding=1)
        for primitive in library.applicable(scenario):
            one = layer_rows(intel_cost_model, [primitive], scenario)[0][0]
            sixteen = layer_rows(intel_cost_model, [primitive], scenario.with_batch(16))[0][0]
            assert sixteen > one, primitive.name
            assert sixteen <= 16.0 * one * (1 + 1e-9), primitive.name

    def test_batch_amortizes_overhead_heavy_families(self, library, intel_cost_model):
        """Per-image FFT cost must drop with the batch (kernel spectra amortize)."""
        scenario = ConvScenario(c=8, h=14, w=14, stride=1, k=3, m=16, padding=1)
        fft = next(
            p for p in library.applicable(scenario) if p.family is PrimitiveFamily.FFT
        )
        one = layer_rows(intel_cost_model, [fft], scenario)[0][0]
        per_image_64 = layer_rows(intel_cost_model, [fft], scenario.with_batch(64))[0][0] / 64
        assert per_image_64 < one

    def test_transform_cost_scales_with_batch(self, intel_cost_model, dt_graph):
        transform = dt_graph.transforms[0]
        shape = (16, 28, 28)
        one = intel_cost_model.transform_cost(transform, shape)
        eight = intel_cost_model.transform_cost(transform, shape, batch=8)
        assert eight > one
        # One batched call amortizes the fixed dispatch cost.
        assert eight < 8.0 * one

    def test_cost_query_batch_reaches_tables(self, tiny_network, intel):
        session = Session()
        tables = session.context_for(tiny_network, intel, batch=4).tables
        assert tables.batch == 4

    def test_store_clear_then_recount(self, tiny_network, intel, tmp_path):
        session = Session(cache_dir=tmp_path)
        store = session.store
        session.plan(tiny_network, intel, batch=1, verify=False)
        session.plan(tiny_network, intel, batch=4, verify=False)
        assert store.stats().entries == 2
        assert store.clear() == 2
        assert store.stats().entries == 0
