"""Tests for cost-table / plan serialization and the command-line interface."""

import dataclasses
import json
import re

import numpy as np
import pytest

from repro.api import Session
from repro.cli import build_parser, main
from repro.core.baselines import sum2d_plan
from repro.core.selector import PBQPSelector
from repro.cost.serialize import (
    cost_tables_from_dict,
    cost_tables_to_dict,
    load_cost_tables,
    load_plan,
    plan_from_dict,
    plan_to_dict,
    save_cost_tables,
    save_plan,
)
from repro.runtime import NetworkExecutor, WeightStore


@pytest.fixture(scope="module")
def context(tiny_network_session, library, dt_graph, intel):
    return Session(library=library, dt_graph=dt_graph).context_for(tiny_network_session, intel)


class TestCostTableSerialization:
    def test_roundtrip_preserves_node_costs(self, context, dt_graph, tmp_path):
        path = tmp_path / "tables.json"
        save_cost_tables(context.tables, path)
        loaded = load_cost_tables(path, dt_graph)
        assert loaded.network_name == context.tables.network_name
        assert loaded.threads == context.tables.threads
        assert set(loaded.node_costs) == set(context.tables.node_costs)
        for layer, costs in context.tables.node_costs.items():
            assert loaded.node_costs[layer] == pytest.approx(costs)
        assert set(loaded.scenarios) == set(context.tables.scenarios)
        for layer, scenario in context.tables.scenarios.items():
            assert loaded.scenarios[layer] == scenario

    def test_roundtrip_preserves_dt_paths(self, context, dt_graph, tmp_path):
        path = tmp_path / "tables.json"
        save_cost_tables(context.tables, path)
        loaded = load_cost_tables(path, dt_graph)
        for shape, pairs in context.tables.dt_costs.items():
            for key, cost in pairs.items():
                assert loaded.dt_costs[shape][key] == pytest.approx(cost)
                original_path = context.tables.dt_paths[shape][key]
                loaded_path = loaded.dt_paths[shape][key]
                assert loaded_path.hops == original_path.hops

    def test_roundtrip_dt_paths_are_equal_and_share_chains(
        self, library, dt_graph, intel_cost_model
    ):
        from repro.cost.serialize import cost_tables_to_dict
        from repro.cost.tables import build_cost_tables
        from repro.models import build_model

        tables = build_cost_tables(build_model("googlenet"), library, dt_graph, intel_cost_model)
        loaded = cost_tables_from_dict(
            json.loads(json.dumps(cost_tables_to_dict(tables))), dt_graph
        )
        assert loaded.dt_paths == tables.dt_paths
        # Each distinct hop list is one chain object across all shapes.
        chains = {}
        for pairs in loaded.dt_paths.values():
            for path in pairs.values():
                if path.chain is not None:
                    key = tuple(hop.name for hop in path.chain.transforms)
                    assert chains.setdefault(key, path.chain) is path.chain

    def test_document_is_json_and_versioned(self, context, tmp_path):
        path = tmp_path / "tables.json"
        save_cost_tables(context.tables, path)
        document = json.loads(path.read_text())
        assert document["format"] == "repro/cost-tables/v3"

    def test_wrong_format_rejected(self, dt_graph):
        with pytest.raises(ValueError):
            cost_tables_from_dict({"format": "something-else"}, dt_graph)

    def test_unknown_direct_transform_rejected(self, context, dt_graph):
        document = cost_tables_to_dict(context.tables)
        hops = next(iter(document["dt_hops"].values()))
        pair = next(iter(hops))
        layout = pair.split("->")[0]
        hops[pair] = [layout, layout]
        with pytest.raises(
            ValueError, match=f"unknown direct transform {layout}->{layout}"
        ):
            cost_tables_from_dict(document, dt_graph)

    def test_loaded_tables_drive_selection_identically(self, context, dt_graph, tmp_path):
        """Selection from reloaded (shipped) cost tables matches the original."""
        path = tmp_path / "tables.json"
        save_cost_tables(context.tables, path)
        loaded_tables = load_cost_tables(path, dt_graph)
        shipped_context = dataclasses.replace(context, tables=loaded_tables)
        original = PBQPSelector().select(context)
        shipped = PBQPSelector().select(shipped_context)
        assert shipped.conv_selections() == original.conv_selections()
        assert shipped.total_cost == pytest.approx(original.total_cost)


class TestPlanSerialization:
    def test_roundtrip_preserves_costs_and_selections(self, context, dt_graph, tmp_path):
        plan = PBQPSelector().select(context)
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        loaded = load_plan(path, dt_graph)
        assert loaded.conv_selections() == plan.conv_selections()
        assert loaded.total_cost == pytest.approx(plan.total_cost)
        assert loaded.dt_cost == pytest.approx(plan.dt_cost)
        assert len(loaded.edge_decisions) == len(plan.edge_decisions)

    def test_loaded_plan_is_executable(self, context, dt_graph, tmp_path):
        plan = PBQPSelector().select(context)
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        loaded = load_plan(path, dt_graph)
        weights = WeightStore(context.network, seed=3)
        x = np.random.default_rng(1).standard_normal((3, 32, 32)).astype(np.float32)
        expected = NetworkExecutor(context.network, plan, context.library, weights).run(x)
        actual = NetworkExecutor(context.network, loaded, context.library, weights).run(x)
        np.testing.assert_allclose(actual, expected, rtol=1e-5, atol=1e-6)

    def test_wrong_format_rejected(self, dt_graph):
        with pytest.raises(ValueError):
            plan_from_dict({"format": "nope"}, dt_graph)

    def test_unknown_direct_transform_rejected(self, context, dt_graph):
        document = plan_to_dict(PBQPSelector().select(context))
        edge = document["edges"][0]
        layout = edge["source_layout"]
        edge["hops"] = [layout, layout]
        with pytest.raises(
            ValueError, match=f"unknown direct transform {layout}->{layout}"
        ):
            plan_from_dict(document, dt_graph)

    def test_plan_dict_contains_strategy_and_platform(self, context):
        plan = sum2d_plan(context)
        document = plan_to_dict(plan)
        assert document["strategy"] == "sum2d"
        assert document["platform"] == "intel-haswell"
        assert document["total_ms"] == pytest.approx(plan.total_ms)


class TestCLI:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["select", "alexnet", "--platform", "arm-cortex-a57"])
        assert args.command == "select" and args.model == "alexnet"
        args = parser.parse_args(["tables", "--platform", "intel-haswell"])
        assert args.command == "tables"

    def test_select_command_runs_and_writes_plan(self, tmp_path, capsys):
        output = tmp_path / "alexnet_plan.json"
        code = main(
            [
                "select",
                "alexnet",
                "--platform",
                "intel-haswell",
                "--threads",
                "2",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "speedup over single-threaded SUM2D baseline" in captured
        assert output.exists()
        document = json.loads(output.read_text())
        assert document["network"] == "alexnet"

    def test_compare_command(self, capsys):
        assert main(["compare", "alexnet", "--threads", "1"]) == 0
        out = capsys.readouterr().out
        assert "pbqp" in out and "best strategy" in out

    def test_tables_command(self, capsys):
        assert main(["tables", "--platform", "arm-cortex-a57"]) == 0
        out = capsys.readouterr().out
        assert "PBQP" in out and "googlenet" in out

    def test_figures_refuse_threads_above_the_cores(self, capsys):
        assert main(["figures", "--platform", "gpu-sim", "--threads", "4"]) == 2
        captured = capsys.readouterr()
        assert "must be <= 1, the cores of gpu-sim" in captured.err
        assert "multithreaded" not in captured.out

    def test_select_refuses_threads_above_the_cores(self, capsys):
        assert main(["select", "alexnet", "--platform", "gpu-sim", "--threads", "4"]) == 2
        captured = capsys.readouterr()
        assert "error: threads must be <= 1, the cores of gpu-sim" in captured.err
        assert "4 threads" not in captured.out

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["select", "resnet-50"])

    def test_serve_takes_only_host_port_and_cache_dir(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(["serve", "--help"])
        assert exit_info.value.code == 0
        options = set(re.findall(r"(--[a-z][a-z-]*)", capsys.readouterr().out))
        assert options == {"--help", "--host", "--port", "--cache-dir"}
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(["serve", "--warm", "zoo"])
        assert exit_info.value.code == 2
