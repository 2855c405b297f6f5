"""Tests for the strategy table and the Session's cached selection."""

import ast
import inspect
import json

import pytest

import repro.core.strategies as strategies_module
import repro.cost.provider as provider_module
from repro.analysis.plan_verifier import PlanVerificationError
from repro.api import Session, network_fingerprint
from repro.core.baselines import sum2d_plan
from repro.core.strategies import (
    STRATEGIES,
    Strategy,
    applicable_strategies,
    figure_strategy_names,
    get_strategy,
    registered_names,
)
from repro.cost.serialize import plan_to_dict
from repro.models import build_model

ALL_STRATEGY_NAMES = {
    "sum2d",
    "direct",
    "im2",
    "kn2",
    "winograd",
    "fft",
    "local_optimal",
    "pbqp",
    "greedy_ignore_dt",
    "mkldnn",
    "armcl",
    "caffe",
    "cudnn",
}


@pytest.fixture
def session(library, dt_graph):
    return Session(library=library, dt_graph=dt_graph)


class TestPublicSurface:
    def test_every_exported_name_resolves(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_engine_shim_is_gone(self):
        import repro
        import repro.api

        assert "Engine" not in repro.__all__
        assert not hasattr(repro.api, "Engine")
        with pytest.raises(AttributeError):
            repro.Engine


class TestRegistry:
    def test_all_strategies_registered(self):
        assert set(STRATEGIES) == ALL_STRATEGY_NAMES
        assert registered_names() == list(STRATEGIES)

    def test_figure_strategies_are_a_registry_view(self):
        # The paper's bar order.
        assert figure_strategy_names() == [
            "direct",
            "im2",
            "kn2",
            "winograd",
            "fft",
            "local_optimal",
            "pbqp",
            "mkldnn",
            "armcl",
            "caffe",
            "cudnn",
        ]

    def test_get_strategy_unknown_name(self):
        with pytest.raises(KeyError, match="unknown strategy"):
            get_strategy("resnet-magic")

    def test_strategy_names_are_unique(self):
        # A dict literal keeps only the last of two equal keys, so read the
        # table's keys from its source, where a duplicate would still show.
        tree = ast.parse(inspect.getsource(strategies_module))
        (table,) = [
            node.value
            for node in tree.body
            if isinstance(node, ast.AnnAssign) and node.target.id == "STRATEGIES"
        ]
        keys = [ast.literal_eval(key) for key in table.keys]
        assert len(keys) == len(set(keys))
        assert keys == registered_names()
        assert [strategy.name for strategy in STRATEGIES.values()] == keys

    def test_figure_strategies_view_is_live(self, monkeypatch):
        late = Strategy("test_late_bar", "A late bar.", sum2d_plan, figure_order=99)
        monkeypatch.setitem(STRATEGIES, late.name, late)
        # A row added after import still gains a figure bar.
        assert figure_strategy_names()[-1] == "test_late_bar"
        monkeypatch.undo()
        assert "test_late_bar" not in figure_strategy_names()

    def test_custom_strategy_registers_and_unregisters(self, session, monkeypatch):
        always = Strategy("test_always_sum2d", "Always SUM2D.", sum2d_plan)
        monkeypatch.setitem(STRATEGIES, always.name, always)
        plan = session.plan(
            "alexnet", "intel-haswell", strategy="test_always_sum2d", verify=False
        )
        assert set(plan.network_plan.conv_selections().values()) == {"sum2d"}
        monkeypatch.undo()
        with pytest.raises(KeyError, match="unknown strategy"):
            get_strategy("test_always_sum2d")


class TestAppliesToGating:
    def test_mkldnn_only_on_wide_simd(self, session):
        intel = session.context_for("alexnet", "intel-haswell")
        arm = session.context_for("alexnet", "arm-cortex-a57")
        assert get_strategy("mkldnn").applies_to(intel)
        assert not get_strategy("mkldnn").applies_to(arm)
        assert get_strategy("armcl").applies_to(arm)
        assert not get_strategy("armcl").applies_to(intel)
        assert get_strategy("caffe").applies_to(intel)
        assert get_strategy("caffe").applies_to(arm)

    def test_applicable_strategies_per_platform(self, session):
        intel = session.context_for("alexnet", "intel-haswell")
        arm = session.context_for("alexnet", "arm-cortex-a57")
        intel_names = {s.name for s in applicable_strategies(intel)}
        arm_names = {s.name for s in applicable_strategies(arm)}
        assert "mkldnn" in intel_names and "armcl" not in intel_names
        assert "armcl" in arm_names and "mkldnn" not in arm_names

    def test_include_frameworks_false_drops_all_emulations(self, session):
        intel = session.context_for("alexnet", "intel-haswell")
        names = {s.name for s in applicable_strategies(intel, include_frameworks=False)}
        assert names == ALL_STRATEGY_NAMES - {"mkldnn", "armcl", "caffe", "cudnn"}

    def test_select_rejects_inapplicable_strategy(self, session):
        with pytest.raises(ValueError, match="does not apply"):
            session.plan("alexnet", "arm-cortex-a57", strategy="mkldnn", verify=False)


class TestSessionCache:
    def test_second_select_reuses_context(self, session, monkeypatch):
        builds = []
        original = provider_module.build_cost_tables

        def counting_build(*args, **kwargs):
            builds.append(kwargs.get("threads"))
            return original(*args, **kwargs)

        # Profiling flows through the cost-provider layer since the Session
        # redesign; count it there.
        monkeypatch.setattr(provider_module, "build_cost_tables", counting_build)

        first = session.plan("alexnet", "intel-haswell", strategy="pbqp", verify=False)
        built_once = len(builds)
        second = session.plan("alexnet", "intel-haswell", strategy="pbqp", verify=False)
        assert built_once == 1
        assert len(builds) == built_once  # no re-profiling on the warm call
        assert not first.from_cache and second.from_cache
        info = session.cache_info()
        assert info.misses == 1 and info.hits == 1 and info.contexts == 1
        assert first.network_plan.conv_selections() == second.network_plan.conv_selections()

    def test_context_identity_and_key_separation(self, session):
        a = session.context_for("alexnet", "intel-haswell", threads=1)
        b = session.context_for("alexnet", "intel-haswell", threads=1)
        assert a is b
        assert session.context_for("alexnet", "intel-haswell", threads=4) is not a
        assert session.context_for("alexnet", "arm-cortex-a57", threads=1) is not a
        assert session.cache_info().contexts == 3

    def test_compare_profiles_once(self, session):
        results = session.compare("alexnet", "intel-haswell")
        assert session.cache_info().misses == 1
        names = [r.strategy for r in results]
        assert sorted(names) == sorted(s.name for s in applicable_strategies(
            session.context_for("alexnet", "intel-haswell")
        ))
        assert all(r.from_cache for r in results)
        by_name = {r.strategy: r for r in results}
        pbqp, sum2d = by_name["pbqp"], by_name["sum2d"]
        assert pbqp.speedup_over(sum2d) > 1.0
        assert min(by_name.values(), key=lambda r: r.total_ms).strategy == "pbqp"

    def test_plans_over_combos_profile_each_key_once(self, session):
        requests = [
            ("intel-haswell", "pbqp"),
            ("intel-haswell", "local_optimal"),
            ("arm-cortex-a57", "pbqp"),
        ]
        results = [
            session.plan("alexnet", platform, strategy=strategy, verify=False)
            for platform, strategy in requests
        ]
        assert [r.strategy for r in results] == ["pbqp", "local_optimal", "pbqp"]
        assert [r.network_plan.platform_name for r in results] == [
            "intel-haswell",
            "intel-haswell",
            "arm-cortex-a57",
        ]
        # Two distinct (model, platform, threads) keys, each profiled once.
        info = session.cache_info()
        assert info.misses == 2 and info.contexts == 2

    def test_clear_cache(self, session):
        session.plan("alexnet", "intel-haswell", verify=False)
        session.clear_cache()
        info = session.cache_info()
        assert info.contexts == 0 and info.hits == 0 and info.misses == 0

    def test_network_object_fingerprint_hits_cache(self, session):
        first = build_model("alexnet")
        second = build_model("alexnet")
        assert first is not second
        assert network_fingerprint(first) == network_fingerprint(second)
        session.plan(first, "intel-haswell", verify=False)
        result = session.plan(second, "intel-haswell", verify=False)
        assert result.from_cache
        assert session.cache_info().contexts == 1

    def test_structurally_different_networks_do_not_collide(self, session):
        from repro.graph.layer import ConvLayer, InputLayer
        from repro.graph.network import Network

        def tiny(kernel):
            net = Network("probe")
            net.add_layer(InputLayer("data", shape=(3, 16, 16)))
            net.add_layer(
                ConvLayer("conv", out_channels=4, kernel=kernel, padding=kernel // 2),
                ["data"],
            )
            net.validate()
            return net

        assert network_fingerprint(tiny(3)) != network_fingerprint(tiny(5))


class TestOneSelectionEntryPoint:
    def test_plan_is_the_only_selection_method(self):
        assert not hasattr(Session, "select")
        assert not hasattr(Session, "select_many")

    def test_passthroughs_read_the_network_plan(self, session):
        pbqp = session.plan("alexnet", "intel-haswell", verify=False)
        sum2d = session.plan("alexnet", "intel-haswell", strategy="sum2d", verify=False)
        assert pbqp.strategy == pbqp.network_plan.strategy == "pbqp"
        assert pbqp.per_image_ms == pbqp.network_plan.per_image_ms
        assert pbqp.speedup_over(sum2d) == pbqp.network_plan.speedup_over(sum2d.network_plan)
        assert pbqp.summary() == pbqp.network_plan.summary()


class TestSelectionResultDocumentsAreRefused:
    """The old selection-result envelope is an unknown format everywhere."""

    @pytest.fixture
    def envelope_path(self, session, tmp_path):
        plan = session.plan("alexnet", "intel-haswell")
        path = tmp_path / "result.json"
        path.write_text(
            json.dumps(
                {
                    "format": "repro/selection-result/v1",
                    "model": "alexnet",
                    "platform": "intel-haswell",
                    "threads": 1,
                    "batch": 1,
                    "dtype": "fp32",
                    "strategy": "pbqp",
                    "plan": plan_to_dict(plan.network_plan),
                }
            )
        )
        return path

    def test_plan_from_file_raises_rv100(self, session, envelope_path):
        with pytest.raises(PlanVerificationError) as excinfo:
            session.plan_from_file(envelope_path)
        rules = {finding.rule for finding in excinfo.value.report.errors}
        assert rules == {"RV100"}
        with pytest.raises(ValueError):
            session.plan_from_file(envelope_path, verify=False)

    def test_cli_check_and_run_refuse_it(self, envelope_path, capsys):
        from repro.cli import main

        assert main(["check", str(envelope_path)]) == 1
        assert "RV100" in capsys.readouterr().out
        assert main(["run", "alexnet", "--plan", str(envelope_path)]) == 2


class TestRewiredHarnesses:
    def test_run_whole_network_covers_registry(self, intel):
        from repro.experiments.whole_network import run_whole_network

        result = run_whole_network("alexnet", intel, threads=1)
        # Every applicable non-baseline registered strategy gets a bar
        # (armcl is NEON-only, cudnn SIMT-only — neither applies on Haswell).
        assert set(result.times_ms) == ALL_STRATEGY_NAMES - {"sum2d", "armcl", "cudnn"}

    def test_cli_list_command(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "strategies:" in out
        for name in ALL_STRATEGY_NAMES:
            assert name in out

    def test_cli_select_with_strategy_flag(self, capsys):
        from repro.cli import main

        assert main(["select", "alexnet", "--strategy", "local_optimal"]) == 0
        out = capsys.readouterr().out
        # No solver stats for a non-PBQP strategy — and no crash formatting them.
        assert "speedup over single-threaded SUM2D baseline" in out
        assert "solver" not in out

    def test_cli_select_rejects_gated_strategy(self, capsys):
        from repro.cli import main

        code = main(
            ["select", "alexnet", "--platform", "arm-cortex-a57", "--strategy", "mkldnn"]
        )
        assert code == 2
        assert "does not apply" in capsys.readouterr().err
