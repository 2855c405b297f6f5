"""Tests for the Session API: plan→execute, cost models and the CostStore."""

import json
import logging

import numpy as np
import pytest

import repro.api as api_module
import repro.cost.store as store_module
from repro.api import (
    ComparisonReport,
    ExecutionReport,
    Plan,
    Session,
)
from repro.cost.analytical import AnalyticalCostModel
from repro.cost.profiler import WallClockProfiler
from repro.cost.serialize import plan_to_dict
from repro.cost.store import CostStore, STORE_ENTRY_FORMAT
from repro.cost.tables import CostQuery, build_cost_tables
from repro.experiments.ablation import ScaledTransformCostModel
from repro.models import build_mobilenet_v2, build_resnet18
from repro.runtime import NetworkExecutor, WeightStore


@pytest.fixture
def session(library, dt_graph):
    return Session(library=library, dt_graph=dt_graph)


@pytest.fixture
def counting_builds(monkeypatch):
    """Count every cost-table build (i.e. every act of profiling)."""
    builds = []
    original = api_module.build_cost_tables

    def counting(*args, **kwargs):
        builds.append(kwargs.get("threads"))
        return original(*args, **kwargs)

    monkeypatch.setattr(api_module, "build_cost_tables", counting)
    return builds


class TestPlanExecute:
    def test_plan_handle_wraps_selection(self, session, tiny_network):
        plan = session.plan(tiny_network, "intel-haswell")
        assert isinstance(plan, Plan)
        assert plan.strategy == "pbqp"
        assert plan.total_ms == plan.network_plan.total_ms
        assert plan.input_shape() == (3, 32, 32)

    @pytest.fixture
    def fingerprint_calls(self, monkeypatch):
        """The networks ``repro.api.network_fingerprint`` hashes, by name."""
        import repro.api

        calls = []
        original = repro.api.network_fingerprint

        def counting(network):
            calls.append(network.name)
            return original(network)

        monkeypatch.setattr(repro.api, "network_fingerprint", counting)
        return calls

    def test_plan_fingerprints_a_hand_built_network_once(
        self, session, tiny_network, fingerprint_calls
    ):
        session.plan(tiny_network, "intel-haswell")
        assert fingerprint_calls == [tiny_network.name]

    def test_compare_fingerprints_a_hand_built_network_once(
        self, session, tiny_network, fingerprint_calls
    ):
        report = session.compare(tiny_network, "intel-haswell")
        assert len(report.results) > 1
        assert fingerprint_calls == [tiny_network.name]

    def test_plan_frontier_fingerprints_a_hand_built_network_once(
        self, session, tiny_network, fingerprint_calls
    ):
        frontier = session.plan_frontier(tiny_network, "intel-haswell")
        assert frontier.points
        assert fingerprint_calls == [tiny_network.name]

    def test_run_fingerprints_a_hand_built_network_once(
        self, session, tiny_network, fingerprint_calls
    ):
        report = session.run(tiny_network, "intel-haswell")
        assert report.layers
        assert fingerprint_calls == [tiny_network.name]

    def test_baseline_fingerprints_a_hand_built_network_once(
        self, session, tiny_network, fingerprint_calls
    ):
        baseline = session.baseline(tiny_network, "intel-haswell")
        assert baseline.strategy == "sum2d"
        assert fingerprint_calls == [tiny_network.name]

    def test_plan_from_file_fingerprints_a_hand_built_network_once(
        self, session, tiny_network, tmp_path, fingerprint_calls
    ):
        path = tmp_path / "plan.json"
        session.plan(tiny_network, "intel-haswell").save(path)
        fingerprint_calls.clear()
        session.plan_from_file(path, network=tiny_network)
        assert fingerprint_calls == [tiny_network.name]

    def test_plan_from_file_model_is_the_session_fingerprint(
        self, session, tiny_network, tmp_path
    ):
        plan = session.plan(tiny_network, "intel-haswell")
        path = tmp_path / "plan.json"
        plan.save(path)
        loaded = session.plan_from_file(path, network=tiny_network)
        assert loaded.model == plan.model
        assert loaded.execute().model == plan.execute().model

    def test_model_is_the_session_fingerprint(self, session, tiny_network):
        from repro.api import network_fingerprint

        fingerprint = network_fingerprint(tiny_network)
        assert fingerprint != tiny_network.name
        plan = session.plan(tiny_network, "intel-haswell")
        assert plan.model == fingerprint
        assert plan.network_plan.network_name == tiny_network.name
        assert plan.execute().model == fingerprint
        assert session.compare(tiny_network, "intel-haswell").model == fingerprint

    def test_from_cache_marks_the_second_plan_of_a_key(self, session, tiny_network):
        first = session.plan(tiny_network, "intel-haswell")
        second = session.plan(tiny_network, "intel-haswell")
        assert not first.from_cache
        assert second.from_cache

    def test_execute_reports_per_layer_times(self, session, tiny_network):
        plan = session.plan(tiny_network, "intel-haswell")
        report = plan.execute()
        assert isinstance(report, ExecutionReport)
        layer_names = [entry.layer for entry in report.layers]
        assert layer_names == [layer.name for layer in tiny_network.topological_order()]
        assert all(entry.measured_ms >= 0 for entry in report.layers)
        # Convolution layers carry their primitive and predicted cost.
        conv_entries = [e for e in report.layers if e.primitive is not None]
        assert set(e.layer for e in conv_entries) == set(
            plan.network_plan.conv_selections()
        )
        for entry in conv_entries:
            assert entry.predicted_ms == pytest.approx(
                1e3 * plan.network_plan.decision(entry.layer).cost
            )
            assert entry.delta_ms == pytest.approx(entry.measured_ms - entry.predicted_ms)

    def test_execute_accounts_for_conversions(self, session, tiny_network):
        plan = session.plan(tiny_network, "intel-haswell")
        report = plan.execute()
        # One planned chain per (producer, target layout): the executor
        # converts once per dedup group and reuses the cached tensor.
        chain_groups = {
            (edge.producer, edge.target_layout.name)
            for edge in plan.network_plan.conversions()
        }
        assert report.conversions_planned == len(chain_groups)
        assert report.conversions_executed == report.conversions_planned
        assert len(report.conversions) == len(plan.network_plan.conversions())
        deduplicated = [entry for entry in report.conversions if entry.deduplicated]
        assert len(deduplicated) == len(plan.network_plan.conversions()) - len(
            chain_groups
        )
        assert all(entry.predicted_ms == 0.0 for entry in deduplicated)
        assert report.predicted_conversion_ms == pytest.approx(
            1e3 * plan.network_plan.dt_cost
        )
        assert report.measured_conversion_ms >= 0
        assert report.measured_total_ms <= report.wall_ms + 1.0

    def test_predicted_vs_measured_totals(self, session, tiny_network):
        plan = session.plan(tiny_network, "intel-haswell")
        report = plan.execute()
        assert report.predicted_total_ms == pytest.approx(plan.total_ms, rel=1e-6)
        assert report.measured_total_ms > 0
        assert report.prediction_ratio == pytest.approx(
            report.measured_total_ms / report.predicted_total_ms
        )

    def test_execute_output_matches_sum2d_reference(self, session, tiny_network):
        pbqp = session.plan(tiny_network, "intel-haswell", strategy="pbqp")
        sum2d = session.plan(tiny_network, "intel-haswell", strategy="sum2d")
        # Same seed => same weights and same generated input.
        out_pbqp = pbqp.execute(seed=7).output
        out_sum2d = sum2d.execute(seed=7).output
        np.testing.assert_allclose(out_pbqp, out_sum2d, rtol=1e-3, atol=1e-4)

    def test_run_one_shot(self, session, tiny_network):
        report = session.run(tiny_network, "intel-haswell", strategy="local_optimal")
        assert report.strategy == "local_optimal"
        assert report.output.shape == (10, 1, 1)
        assert report.output.sum() == pytest.approx(1.0, abs=1e-5)

    def test_run_alexnet_end_to_end(self, session):
        """Acceptance: Session.run('alexnet', 'intel-haswell') works end-to-end."""
        report = session.run("alexnet", "intel-haswell")
        assert isinstance(report, ExecutionReport)
        assert report.model == "alexnet"
        network = session.context_for("alexnet", "intel-haswell").network
        assert [entry.layer for entry in report.layers] == [
            layer.name for layer in network.topological_order()
        ]
        assert all(entry.measured_ms >= 0 for entry in report.layers)
        assert report.measured_total_ms > 0
        assert report.output.shape == (1000, 1, 1)
        assert report.output.sum() == pytest.approx(1.0, abs=1e-4)

    def test_format_is_readable(self, session, tiny_network):
        report = session.run(tiny_network, "intel-haswell")
        text = report.format()
        assert "Execution report" in text
        assert "measured" in text and "predicted" in text
        for name in tiny_network.layer_names():
            assert name in text

    def test_single_output_report_heads(self, session, tiny_network):
        report = session.run(tiny_network, "intel-haswell")
        assert report.output_layer == "prob"
        assert set(report.heads) == {"prob"}
        np.testing.assert_array_equal(report.heads["prob"], report.output)
        np.testing.assert_array_equal(report.primary_output, report.output)

    def test_multi_output_report_surfaces_every_head(self, session):
        from repro.graph.layer import ConvLayer, InputLayer, PoolLayer, ReLULayer
        from repro.graph.network import Network

        net = Network("two-heads")
        net.add_layer(InputLayer("data", shape=(3, 12, 12)))
        net.add_layer(ConvLayer("conv", out_channels=4, kernel=3, padding=1), ["data"])
        net.add_layer(ReLULayer("head_a"), ["conv"])
        net.add_layer(PoolLayer("head_b", kernel=2, stride=2), ["conv"])
        net.validate()

        report = session.run(net, "intel-haswell")
        assert isinstance(report.output, dict)
        assert set(report.heads) == {"head_a", "head_b"}
        # The primary head is the last output layer in topological order.
        assert report.output_layer == "head_b"
        np.testing.assert_array_equal(report.primary_output, report.output["head_b"])
        assert report.heads["head_a"].shape == (4, 12, 12)
        assert report.heads["head_b"].shape == (4, 6, 6)

    def test_plan_save_and_reload_roundtrip(self, session, tiny_network, tmp_path):
        plan = session.plan(tiny_network, "intel-haswell")
        path = tmp_path / "plan.json"
        plan.save(path)
        loaded = session.plan_from_file(path, network=tiny_network)
        assert loaded.network_plan.conv_selections() == plan.network_plan.conv_selections()
        out_a = plan.execute(seed=3).output
        out_b = loaded.execute(seed=3).output
        np.testing.assert_allclose(out_b, out_a, rtol=1e-5, atol=1e-6)

    def test_plan_from_file_rejects_wrong_network(self, session, tiny_network, tmp_path):
        plan = session.plan(tiny_network, "intel-haswell")
        path = tmp_path / "plan.json"
        plan.save(path)
        from repro.models import build_model

        with pytest.raises(ValueError, match="saved for network"):
            session.plan_from_file(path, network=build_model("alexnet"))


class TestCompare:
    def test_compare_is_sorted_by_total_cost(self, session):
        report = session.compare("alexnet", "intel-haswell")
        assert isinstance(report, ComparisonReport)
        totals = [r.total_ms for r in report.results]
        assert totals == sorted(totals)
        assert report.best.strategy == "pbqp"

    def test_compare_rows_carry_speedup_vs_baseline(self, session):
        report = session.compare("alexnet", "intel-haswell")
        assert report.baseline.strategy == "sum2d"
        assert report.baseline.network_plan.threads == 1
        for strategy, total_ms, speedup in report.rows():
            assert speedup == pytest.approx(report.baseline.total_ms / total_ms)
        # The ranked-first row has the highest speedup.
        speedups = [row[2] for row in report.rows()]
        assert speedups == sorted(speedups, reverse=True)

    def test_compare_profiles_once(self, session, counting_builds):
        session.compare("alexnet", "intel-haswell")
        assert len(counting_builds) == 1
        assert session.cache_info().misses == 1

    def test_compare_format_mentions_ranking(self, session):
        text = session.compare("alexnet", "intel-haswell").format()
        assert "sorted by total cost" in text
        assert "speedup" in text
        assert "pbqp" in text


class TestCostModels:
    def test_analytical_is_the_default(self, session, intel_cost_model, tiny_network):
        assert session.cost_model is None
        tables = session.context_for(tiny_network, "intel-haswell").tables
        expected = build_cost_tables(
            tiny_network, session.library, session.dt_graph, intel_cost_model
        )
        assert tables.node_costs == expected.node_costs
        assert tables.dt_costs == expected.dt_costs

    def test_analytical_requires_platform(self, session):
        with pytest.raises(ValueError, match="requires a platform"):
            session.plan("alexnet", None)

    def test_models_name_their_cost_source(self, intel_cost_model):
        assert (intel_cost_model.name, intel_cost_model.version) == ("analytical", "1")
        profiler = WallClockProfiler()
        assert (profiler.name, profiler.version) == ("profiled", "1")
        assert ScaledTransformCostModel(intel_cost_model, 0.5).name == "scaled-dt[0.5]"

    def test_profiler_drives_selection(self, library, dt_graph, tiny_network):
        session = Session(
            library=library, dt_graph=dt_graph, cost_model=WallClockProfiler()
        )
        plan = session.plan(tiny_network, None, verify=False)
        assert plan.network_plan.platform_name == "profiled"
        assert plan.strategy == "pbqp"
        # Measured costs are real times: strictly positive.
        context = session.context_for(tiny_network, None)
        for costs in context.tables.node_costs.values():
            assert all(value > 0 for value in costs.values())

    def test_session_prices_with_any_model(self, library, dt_graph, intel_cost_model):
        session = Session(library=library, dt_graph=dt_graph, cost_model=intel_cost_model)
        plan = session.plan("alexnet", None, verify=False)
        # The model prices one platform, so that platform labels the plan.
        assert plan.network_plan.platform_name == "intel-haswell"

    @pytest.mark.parametrize("cache", [False, True])
    def test_platform_model_plans_verify_like_the_platform(
        self, intel_cost_model, tmp_path, cache
    ):
        session = Session(
            cost_model=intel_cost_model,
            cache_dir=tmp_path if cache else None,
        )
        plan = session.plan("alexnet", None)
        expected = Session().plan("alexnet", "intel-haswell")
        assert plan_to_dict(plan.network_plan) == plan_to_dict(expected.network_plan)
        assert session.context_for("alexnet", None) is session.context_for(
            "alexnet", "intel-haswell"
        )

    def test_platformless_model_labels_plans_with_its_name(
        self, tiny_network, intel_cost_model
    ):
        scaled = ScaledTransformCostModel(intel_cost_model, 2.0)
        session = Session(cost_model=scaled)
        assert session.context_for(tiny_network, None).platform_name == "scaled-dt[2.0]"

    def test_threads_above_the_cores_are_refused(self, session):
        with pytest.raises(ValueError, match=r"threads must be <= 1, the cores of gpu-sim"):
            session.plan("alexnet", "gpu-sim", threads=4)
        # Nothing was priced for the refused count.
        assert session.cache_info().misses == 0
        session.plan("alexnet", "gpu-sim", threads=1)
        assert session.cache_info().misses == 1


class TestCostStore:
    def test_session_cache_dir_builds_a_store(self, library, dt_graph, tmp_path):
        assert Session(library=library, dt_graph=dt_graph).store is None
        session = Session(library=library, dt_graph=dt_graph, cache_dir=tmp_path)
        assert isinstance(session.store, CostStore)
        assert session.store.cache_dir == tmp_path
        assert session.cost_model is None

    def test_fresh_session_skips_profiling(
        self, library, dt_graph, tiny_network, tmp_path, counting_builds
    ):
        first = Session(library=library, dt_graph=dt_graph, cache_dir=tmp_path)
        cold = first.plan(tiny_network, "intel-haswell", verify=False)
        assert len(counting_builds) == 1
        assert first.store.stats().misses == 1

        # A new session simulates a fresh process: in-memory caches are empty.
        second = Session(library=library, dt_graph=dt_graph, cache_dir=tmp_path)
        warm = second.plan(tiny_network, "intel-haswell", verify=False)
        assert len(counting_builds) == 1  # zero additional profiling
        assert second.store.stats().hits == 1
        assert warm.network_plan.conv_selections() == cold.network_plan.conv_selections()
        assert warm.total_ms == pytest.approx(cold.total_ms)

    def test_entry_file_names_are_pinned(self, tiny_network, tmp_path):
        """The file name, digest included, is fixed for one analytical and one
        profiled key, so existing cache directories keep hitting."""
        Session(cache_dir=tmp_path / "a").plan("alexnet", "intel-haswell", verify=False)
        Session(
            cost_model=WallClockProfiler(repetitions=1, warmup=0),
            cache_dir=tmp_path / "p",
        ).plan(tiny_network, None, verify=False)
        names = sorted(path.relative_to(tmp_path).as_posix() for path in tmp_path.rglob("*.json"))
        assert names == [
            "a/intel-haswell/alexnet_intel-haswell_1t_b1_fp32_4a2fd7879671ce96.json",
            "p/profiled/tiny_78f3e10d4f839d78_profiled_1t_b1_fp32_6d70b6fbcbeaf1b4.json",
        ]

    def test_profiled_store_plans_without_a_platform(
        self, library, dt_graph, tiny_network, tmp_path
    ):
        def session():
            return Session(
                library=library,
                dt_graph=dt_graph,
                cost_model=WallClockProfiler(repetitions=1, warmup=0),
                cache_dir=tmp_path / "store",
            )

        first = session()
        assert first.cost_model.name == "profiled"
        plan = first.plan(tiny_network, None)  # verified by default
        assert plan.network_plan.platform_name == "profiled"
        assert first.store.stats().misses == 1
        path = tmp_path / "plan.json"
        plan.save(path)

        second = session()
        warm = second.plan(tiny_network, None)
        assert second.store.stats().hits == 1 and second.store.stats().misses == 0
        assert warm.network_plan.conv_selections() == plan.network_plan.conv_selections()
        reloaded = second.plan_from_file(path, network=tiny_network)
        assert reloaded.network_plan.conv_selections() == plan.network_plan.conv_selections()

    def test_entries_are_keyed_and_versioned(self, library, dt_graph, tiny_network, tmp_path):
        session = Session(library=library, dt_graph=dt_graph, cache_dir=tmp_path)
        session.plan(tiny_network, "intel-haswell", verify=False)
        session.plan(tiny_network, "arm-cortex-a57", verify=False)
        entries = session.store.entries()
        assert len(entries) == 2
        platforms = {entry.key.platform for entry in entries}
        assert platforms == {"intel-haswell", "arm-cortex-a57"}
        for entry in entries:
            assert entry.key.provider == "analytical"
            assert entry.key.provider_version == AnalyticalCostModel.version
            document = json.loads(entry.path.read_text())
            assert document["format"] == STORE_ENTRY_FORMAT

    def test_model_version_invalidates_entries(
        self, library, dt_graph, tiny_network, intel, tmp_path, counting_builds
    ):
        class BumpedModel(AnalyticalCostModel):
            version = "999-test"

        first = Session(library=library, dt_graph=dt_graph, cache_dir=tmp_path)
        first.plan(tiny_network, "intel-haswell", verify=False)
        assert len(counting_builds) == 1

        bumped = Session(
            library=library,
            dt_graph=dt_graph,
            cost_model=BumpedModel(intel),
            cache_dir=tmp_path,
        )
        bumped.plan(tiny_network, "intel-haswell", verify=False)
        # The stale v1 entry is not served for the bumped model.
        assert len(counting_builds) == 2
        assert len(bumped.store.entries()) == 2

    def test_tables_priced_for_another_platform_are_not_served(
        self, library, dt_graph, tiny_network, intel_cost_model, tmp_path, counting_builds
    ):
        # A one-platform model prices that platform whatever the plan is
        # labelled, so its entry must not answer for the labelled platform.
        Session(
            library=library, dt_graph=dt_graph, cost_model=intel_cost_model, cache_dir=tmp_path
        ).plan(tiny_network, "arm-cortex-a57", verify=False)
        arm = Session(library=library, dt_graph=dt_graph, cache_dir=tmp_path)
        arm.plan(tiny_network, "arm-cortex-a57", verify=False)
        assert len(counting_builds) == 2
        assert arm.store.stats().hits == 0

    @pytest.mark.parametrize("other", [{"format": "repro/cost-store-entry/v4"}, []])
    def test_skipped_entries_are_logged_once_and_rewritten(
        self, library, dt_graph, tiny_network, tmp_path, caplog, monkeypatch, other
    ):
        monkeypatch.setattr(store_module, "_SKIPPED_ENTRY_LOGGED", False)
        platforms = ("intel-haswell", "arm-cortex-a57")
        warm = Session(library=library, dt_graph=dt_graph, cache_dir=tmp_path)
        for platform in platforms:
            warm.plan(tiny_network, platform, verify=False)
        paths = sorted(entry.path for entry in warm.store.entries())
        assert len(paths) == 2
        # One entry does not parse, the other is not a current-format entry.
        paths[0].write_text("{not json")
        paths[1].write_text(json.dumps(other))

        caplog.set_level(logging.WARNING, logger="repro.cost.store")
        fresh = Session(library=library, dt_graph=dt_graph, cache_dir=tmp_path)
        for platform in platforms:
            fresh.plan(tiny_network, platform, verify=False)
        records = [r for r in caplog.records if r.name == "repro.cost.store"]
        assert len(records) == 1
        assert records[0].levelno == logging.WARNING
        assert fresh.store.stats().misses == 2 and fresh.store.stats().hits == 0
        for path in paths:
            assert json.loads(path.read_text())["format"] == STORE_ENTRY_FORMAT

    def test_served_entries_stay_silent(
        self, library, dt_graph, tiny_network, tmp_path, caplog, monkeypatch
    ):
        monkeypatch.setattr(store_module, "_SKIPPED_ENTRY_LOGGED", False)
        caplog.set_level(logging.WARNING, logger="repro.cost.store")
        Session(library=library, dt_graph=dt_graph, cache_dir=tmp_path).plan(
            tiny_network, "intel-haswell", verify=False
        )
        fresh = Session(library=library, dt_graph=dt_graph, cache_dir=tmp_path)
        fresh.plan(tiny_network, "intel-haswell", verify=False)
        assert fresh.store.stats().hits == 1 and fresh.store.stats().misses == 0
        assert not [r for r in caplog.records if r.name == "repro.cost.store"]

    def test_clear_removes_entries(self, library, dt_graph, tiny_network, tmp_path):
        session = Session(library=library, dt_graph=dt_graph, cache_dir=tmp_path)
        session.plan(tiny_network, "intel-haswell", verify=False)
        assert session.store.clear() == 1
        assert session.store.entries() == []

    def test_multithreaded_framework_tables_go_through_store(
        self, library, dt_graph, tiny_network, tmp_path, counting_builds
    ):
        first = Session(library=library, dt_graph=dt_graph, cache_dir=tmp_path)
        # mkldnn needs single-threaded tables on top of the 4-thread ones.
        first.plan(tiny_network, "intel-haswell", strategy="mkldnn", threads=4, verify=False)
        assert sorted(counting_builds) == [1, 4]
        assert len(first.store.entries()) == 2

        second = Session(library=library, dt_graph=dt_graph, cache_dir=tmp_path)
        second.plan(tiny_network, "intel-haswell", strategy="mkldnn", threads=4, verify=False)
        assert sorted(counting_builds) == [1, 4]  # both table sets came from disk

    def test_different_library_does_not_hit_stale_entries(
        self, library, dt_graph, tiny_network, tmp_path, counting_builds
    ):
        full = Session(library=library, dt_graph=dt_graph, cache_dir=tmp_path)
        full_plan = full.plan(tiny_network, "intel-haswell", verify=False)
        assert len(counting_builds) == 1

        # A session over a reduced library must not load the full-library
        # tables (their node costs name primitives the session cannot run).
        from repro.primitives.base import PrimitiveFamily

        reduced_names = [
            p.name
            for p in library
            if p.family in (PrimitiveFamily.SUM2D, PrimitiveFamily.IM2)
        ]
        reduced = Session(library=library.subset(reduced_names), cache_dir=tmp_path)
        plan = reduced.plan(tiny_network, "intel-haswell", verify=False)
        assert len(counting_builds) == 2  # re-profiled, not served stale
        chosen = set(plan.network_plan.conv_selections().values())
        assert chosen <= set(reduced_names)
        assert set(full_plan.network_plan.conv_selections().values()) - set(reduced_names)

    def test_concurrent_writes_of_one_key_never_tear(
        self, library, dt_graph, tiny_network, tmp_path
    ):
        """Regression: per-call unique temp names for the write-then-rename.

        A pid-suffixed temp name is shared by every thread of one process, so
        two threads producing the same key used to interleave
        on one temp file and rename a torn JSON document.  Each writer must
        use its own temp file; afterwards the entry must parse and be served.
        """
        import threading

        from repro.api import network_fingerprint
        from repro.cost.platform import PLATFORMS

        store = CostStore(tmp_path)
        model = AnalyticalCostModel(PLATFORMS["intel-haswell"])
        query = CostQuery(
            network=tiny_network,
            fingerprint=network_fingerprint(tiny_network),
            platform=PLATFORMS["intel-haswell"],
            platform_name="intel-haswell",
            threads=1,
            library=library,
            dt_graph=dt_graph,
        )
        tables = build_cost_tables(tiny_network, library, dt_graph, model)
        key = store.key_for(query, model)
        path = store.path_for(key)

        barrier = threading.Barrier(8)
        errors = []

        def write():
            try:
                barrier.wait()
                for _ in range(5):
                    store._write(path, key, tables)
            except Exception as exc:  # pragma: no cover - the failure signal
                errors.append(exc)

        threads = [threading.Thread(target=write) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # The entry parses (no torn write) and no temp litter is left behind.
        document = json.loads(path.read_text())
        assert document["format"] == STORE_ENTRY_FORMAT
        assert [entry.path for entry in store.entries()] == [path]
        assert not list(tmp_path.glob("*.tmp")) and not list(tmp_path.glob(".*"))
        # And a fresh store serves it.
        fresh = CostStore(tmp_path)
        served = fresh.tables(query, model, build=lambda: pytest.fail("rebuilt, not served"))
        assert served.node_costs == tables.node_costs
        assert fresh.stats().hits == 1

    def test_store_roundtrip_preserves_selection(self, library, dt_graph, tmp_path):
        cold = Session(library=library, dt_graph=dt_graph, cache_dir=tmp_path)
        cold_result = cold.plan("alexnet", "intel-haswell", verify=False)
        warm = Session(library=library, dt_graph=dt_graph, cache_dir=tmp_path)
        warm_result = warm.plan("alexnet", "intel-haswell", verify=False)
        assert (
            warm_result.network_plan.conv_selections()
            == cold_result.network_plan.conv_selections()
        )
        assert warm_result.total_ms == pytest.approx(cold_result.total_ms)


class TestSessionCLI:
    def test_cli_select_save_then_run_plan(self, tmp_path, capsys):
        from repro.cli import main

        saved = tmp_path / "alexnet.json"
        assert main(["select", "alexnet", "--save", str(saved)]) == 0
        capsys.readouterr()
        assert saved.exists()
        assert main(["run", "alexnet", "--plan", str(saved)]) == 0
        out = capsys.readouterr().out
        assert "executing saved plan" in out
        assert "Execution report" in out
        assert "output: class" in out

    def test_cli_run_with_cache_dir_populates_store(self, tmp_path, capsys):
        from repro.cli import main

        cache = tmp_path / "cache"
        assert main(
            [
                "run",
                "alexnet",
                "--cache-dir",
                str(cache),
                "--strategy",
                "local_optimal",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Execution report" in out
        assert len(CostStore(cache).entries()) == 1

    def test_cli_cache_lists_and_clears(self, tmp_path, capsys):
        from repro.cli import main

        cache = tmp_path / "cache"
        assert main(["select", "alexnet", "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        assert main(["cache", "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "1 entry" in out and "alexnet" in out
        assert main(["cache", "--cache-dir", str(cache), "--clear"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert main(["cache", "--cache-dir", str(cache)]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_cli_compare_is_ranked_with_speedups(self, capsys):
        from repro.cli import main

        assert main(["compare", "alexnet"]) == 0
        out = capsys.readouterr().out
        assert "sorted by total cost" in out
        assert "best strategy: pbqp" in out
        # The first data row is the fastest strategy (pbqp).
        lines = [
            line
            for line in out.splitlines()
            if line and not line.startswith(("Strategy", "strategy", "-", "(", "best"))
        ]
        assert lines[0].startswith("pbqp")

    def test_cli_run_rejects_missing_plan_file(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["run", "alexnet", "--plan", str(tmp_path / "missing.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_cli_run_refuses_v1_plan(self, tmp_path, capsys):
        from repro.cli import main

        saved = tmp_path / "alexnet.json"
        assert main(["select", "alexnet", "--save", str(saved)]) == 0
        capsys.readouterr()
        legacy = tmp_path / "v1.json"
        legacy.write_text(saved.read_text().replace("repro/plan/v2", "repro/plan/v1"))
        code = main(["run", "alexnet", "--plan", str(legacy)])
        assert code == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "executing saved plan" not in captured.out

    def test_cli_run_rejects_plan_for_other_network(self, tmp_path, capsys):
        from repro.cli import main

        saved = tmp_path / "alexnet.json"
        assert main(["select", "alexnet", "--save", str(saved)]) == 0
        capsys.readouterr()
        code = main(["run", "vgg-a", "--plan", str(saved)])
        assert code == 2
        err = capsys.readouterr().err
        assert "saved for network 'alexnet'" in err and "vgg-a" in err


class TestConcurrentSession:
    def test_concurrent_plan_builds_tables_once(self, session, counting_builds):
        """Regression: two threads planning the same key build one table set.

        The context memoization used to be a bare dict: two simultaneous
        first requests both missed and both profiled.  With the per-key build
        locks exactly one thread builds while the other waits for the result.
        """
        import threading

        barrier = threading.Barrier(2)
        plans, errors = [], []

        def worker():
            try:
                barrier.wait(timeout=30)
                plans.append(session.plan("alexnet", "intel-haswell"))
            except Exception as exc:  # pragma: no cover - failure diagnostics
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert len(plans) == 2
        assert len(counting_builds) == 1  # exactly one profiling pass
        info = session.cache_info()
        assert info.misses == 1 and info.contexts == 1
        assert (
            plans[0].network_plan.conv_selections()
            == plans[1].network_plan.conv_selections()
        )

    def test_concurrent_distinct_keys_build_independently(self, session, counting_builds):
        import threading

        platforms = ["intel-haswell", "arm-cortex-a57"]
        threads = [
            threading.Thread(target=session.plan, args=("alexnet", platform))
            for platform in platforms
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert len(counting_builds) == 2
        assert session.cache_info().contexts == 2


@pytest.fixture
def weight_misses(monkeypatch):
    """Names of the layers whose weights a WeightStore synthesized."""
    misses = []
    for name in ("conv_weights", "fc_weights"):
        original = getattr(WeightStore, name)

        def counting(self, layer_name, _original=original):
            if layer_name not in self._cache:
                misses.append(layer_name)
            return _original(self, layer_name)

        monkeypatch.setattr(WeightStore, name, counting)
    return misses


def _two_layer_network(name):
    from repro.graph.layer import ConvLayer, InputLayer
    from repro.graph.network import Network

    net = Network(name)
    net.add_layer(InputLayer("data", shape=(3, 8, 8)))
    net.add_layer(ConvLayer("conv", out_channels=4, kernel=3, padding=1), ["data"])
    return net


class TestSharedWeights:
    """A Session synthesizes a network's weights once per seed, for every plan."""

    @pytest.mark.parametrize("dtype", ["fp32", "int8"])
    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_resnet18(input_size=64, base_width=8),
            lambda: build_mobilenet_v2(input_size=64, width_multiplier=0.125),
        ],
        ids=["resnet18-64", "mobilenet_v2-64"],
    )
    def test_execute_matches_a_fresh_store_bitwise(self, session, build, dtype):
        network = build()
        plan = session.plan(network, "intel-haswell", dtype=dtype)
        for seed in (0, 1, 0):
            x = np.random.default_rng(seed).standard_normal(plan.input_shape())
            fresh = NetworkExecutor(
                network, plan.network_plan, plan.library, WeightStore(network, seed=seed)
            ).run(x.astype(np.float32))
            assert np.array_equal(plan.execute(seed=seed).primary_output, fresh)

    def test_second_execute_synthesizes_no_weights(self, session, tiny_network, weight_misses):
        pbqp = session.plan(tiny_network, "intel-haswell")
        sum2d = session.plan(tiny_network, "intel-haswell", strategy="sum2d")
        pbqp.execute(seed=2)
        assert sorted(weight_misses) == sorted([*tiny_network.conv_scenarios(), "fc"])
        weight_misses.clear()
        pbqp.execute(seed=2)
        sum2d.execute(seed=2)
        assert weight_misses == []
        pbqp.execute(seed=5)
        assert weight_misses

    def test_plans_of_one_network_share_one_store(self, session, tiny_network, tmp_path):
        pbqp = session.plan(tiny_network, "intel-haswell")
        sum2d = session.plan(tiny_network, "arm-cortex-a57", strategy="sum2d")
        pbqp.save(tmp_path / "plan.json")
        loaded = session.plan_from_file(tmp_path / "plan.json", network=tiny_network)
        store = pbqp.executor(seed=1).weights
        assert store.seed == 1 and store.network is tiny_network
        assert sum2d.executor(seed=1).weights is store
        assert loaded.executor(seed=1).weights is store
        assert session.cache_info().weight_stores == 1

    def test_at_most_one_store_per_network(self, session, tiny_network):
        networks = [tiny_network, _two_layer_network("a"), _two_layer_network("b")]
        plans = [session.plan(network, "intel-haswell") for network in networks]
        for seed in (0, 1):
            for plan in plans:
                plan.execute(seed=seed)
        assert session.cache_info().weight_stores == len(networks)
        before = plans[0].executor(seed=1).weights
        replaced = plans[0].executor(seed=7).weights
        assert replaced is not before and replaced.seed == 7
        assert plans[0].executor(seed=7).weights is replaced
        assert session.cache_info().weight_stores == len(networks)
        session.clear_cache()
        assert session.cache_info().weight_stores == 0

    def test_a_plan_needs_a_weight_source(self, session, tiny_network):
        planned = session.plan(tiny_network, "intel-haswell")
        with pytest.raises(TypeError, match="weight_source"):
            Plan(
                planned.network_plan,
                planned.model,
                tiny_network,
                planned.library,
                planned.dt_graph,
            )

    def test_concurrent_executes_share_one_store(self, library, dt_graph, weight_misses):
        """Threads executing different plans of one network race the first
        synthesis of the shared store; each must compute exactly what a
        single-threaded run computes, and each weight is synthesized once."""
        import sys
        import threading

        def plans(session):
            network = build_resnet18(input_size=64, base_width=8)
            return [
                session.plan(network, "intel-haswell"),
                session.plan(network, "intel-haswell", strategy="sum2d"),
            ]

        expected = [
            plan.execute(seed=3).primary_output
            for plan in plans(Session(library=library, dt_graph=dt_graph))
        ]
        synthesized = len(weight_misses)
        weight_misses.clear()
        session = Session(library=library, dt_graph=dt_graph)
        shared = plans(session)
        workers = 4  # more threads than the CI runners' cores, two per plan
        barrier = threading.Barrier(workers)
        outputs, errors = {}, []

        def worker(index):
            try:
                barrier.wait(timeout=30)
                outputs[index] = shared[index % 2].execute(seed=3).primary_output
            except Exception as exc:  # pragma: no cover - failure diagnostics
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        for index in range(workers):
            assert np.array_equal(outputs[index], expected[index % 2])
        assert session.cache_info().weight_stores == 1
        assert len(weight_misses) == synthesized


class TestStoreEviction:
    @pytest.fixture
    def warm_store(self, library, dt_graph, tiny_network, tmp_path):
        session = Session(library=library, dt_graph=dt_graph, cache_dir=tmp_path)
        session.plan(tiny_network, "intel-haswell", verify=False)
        session.plan(tiny_network, "arm-cortex-a57", verify=False)
        return session.store

    def test_entries_are_sharded_by_platform(self, warm_store):
        shards = {entry.path.parent.name for entry in warm_store.entries()}
        assert shards == {"intel-haswell", "arm-cortex-a57"}

    def test_evict_noop_on_current_entries(self, warm_store):
        report = warm_store.evict()
        assert report.removed == 0
        assert len(warm_store.entries()) == 2
        assert warm_store.stats().evictions == 0

    def test_evict_removes_stale_format(self, warm_store, tmp_path):
        entry = warm_store.entries()[0]
        document = json.loads(entry.path.read_text())
        document["format"] = "repro/cost-store-entry/v1"
        entry.path.write_text(json.dumps(document))
        (tmp_path / "junk.json").write_text("{not json")

        report = warm_store.evict()
        assert report.stale_format == 2 and report.removed == 2
        assert len(warm_store.entries()) == 1
        assert warm_store.stats().evictions == 2

    def test_evict_removes_stale_platform_version(self, warm_store):
        entry = warm_store.entries()[0]
        document = json.loads(entry.path.read_text())
        document["key"]["platform_version"] = "v0:deadbeef"
        entry.path.write_text(json.dumps(document))

        report = warm_store.evict()
        assert report.stale_platform == 1 and report.removed == 1
        assert len(warm_store.entries()) == 1

    def test_evict_keeps_unregistered_platforms(self, warm_store):
        # An entry for a platform nobody has registered in this process may
        # belong to another deployment sharing the store; TTL-less eviction
        # must keep it.
        entry = warm_store.entries()[0]
        document = json.loads(entry.path.read_text())
        document["key"]["platform"] = "somebody-elses-board"
        entry.path.write_text(json.dumps(document))
        report = warm_store.evict()
        assert report.removed == 0

    def test_evict_ttl_by_mtime(self, warm_store):
        import time as time_module

        now = time_module.time()
        report = warm_store.evict(ttl_seconds=3600.0, now=now + 7200.0)
        assert report.expired == 2 and report.removed == 2
        assert warm_store.stats().entries == 0
        assert warm_store.stats().evictions == 2

    def test_stats_reports_bytes_on_disk(self, warm_store):
        stats = warm_store.stats()
        assert stats.entries == 2
        expected = sum(entry.size_bytes for entry in warm_store.entries())
        assert stats.bytes_on_disk == expected > 0

    def test_cli_cache_evict(self, warm_store, capsys):
        from repro.cli import main

        entry = warm_store.entries()[0]
        document = json.loads(entry.path.read_text())
        document["format"] = "stale"
        entry.path.write_text(json.dumps(document))
        assert main(["cache", "--cache-dir", str(warm_store.cache_dir), "--evict"]) == 0
        out = capsys.readouterr().out
        assert "evicted 1 entry" in out and "stale format: 1" in out
        assert (
            main(
                [
                    "cache",
                    "--cache-dir",
                    str(warm_store.cache_dir),
                    "--evict",
                    "--ttl-hours",
                    "0",
                ]
            )
            == 0
        )
        assert "expired: 1" in capsys.readouterr().out
