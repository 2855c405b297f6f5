"""End-to-end wiring of the analysis layer: CLI, service, and Session hooks."""

from __future__ import annotations

import copy
import dataclasses
import json

import pytest

from repro.analysis.plan_verifier import (
    PlanVerificationError,
    verify_document,
    verify_plan,
)
from repro.api import Session
from repro.cli import main
from repro.core.strategies import STRATEGIES, Strategy, get_strategy
from repro.cost.analytical import AnalyticalCostModel
from repro.cost.platform import PLATFORMS
from repro.cost.profiler import WallClockProfiler
from repro.cost.serialize import (
    cost_tables_from_dict,
    plan_from_dict,
    plan_to_dict,
    save_plan,
)
from repro.experiments.ablation import ScaledTransformCostModel
from repro.multiobj.frontier import Frontier
from repro.service.app import PlannerApp
from tests.conftest import build_tiny_network


@pytest.fixture(scope="module")
def session():
    return Session()


@pytest.fixture(scope="module")
def plan_doc(session):
    return plan_to_dict(session.plan("alexnet", "intel-haswell").network_plan)


# ---------------------------------------------------------------------------
# repro check / repro lint CLI


def test_check_cli_exit_codes(tmp_path, session, plan_doc, capsys):
    good = tmp_path / "good.json"
    save_plan(session.plan("alexnet", "intel-haswell").network_plan, good)
    assert main(["check", str(good)]) == 0

    bad_doc = copy.deepcopy(plan_doc)
    bad_doc["cost_vector"]["time_ms"] *= 1.5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(bad_doc))
    assert main(["check", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "RV130" in out

    assert main(["check", str(tmp_path / "missing.json")]) == 2
    # A mix of good and bad paths is still a failure.
    assert main(["check", str(good), str(bad)]) == 1


def test_check_cli_refuses_v1_plan(tmp_path, plan_doc, capsys):
    legacy_doc = copy.deepcopy(plan_doc)
    legacy_doc["format"] = "repro/plan/v1"
    legacy = tmp_path / "v1.json"
    legacy.write_text(json.dumps(legacy_doc))
    assert main(["check", str(legacy)]) == 1
    out = capsys.readouterr().out
    assert "RV100" in out and "unknown document format" in out


def test_check_cli_json_output(tmp_path, session, capsys):
    good = tmp_path / "good.json"
    save_plan(session.plan("alexnet", "intel-haswell").network_plan, good)
    assert main(["check", "--json", str(good)]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert isinstance(reports, list) and len(reports) == 1
    assert reports[0]["format"] == "repro/analysis-report/v1"


def test_lint_cli(tmp_path, capsys):
    assert main(["lint", "src"]) == 0
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from repro.models import MODEL_BUILDERS\nMODEL_BUILDERS.clear()\n"
    )
    assert main(["lint", str(bad)]) == 1
    capsys.readouterr()
    assert main(["lint", "--json", str(bad)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert any(f["rule"] == "LT201" for f in report["findings"])


# ---------------------------------------------------------------------------
# /v1/validate


def test_validate_endpoint(session, plan_doc):
    app = PlannerApp(session=session)
    status, body = app.handle("POST", "/v1/validate", {"document": plan_doc})
    payload = json.loads(body)
    assert status == 200
    assert payload["ok"] is True and payload["errors"] == 0

    bad_doc = copy.deepcopy(plan_doc)
    bad_doc["dtype"] = "int4"
    status, body = app.handle("POST", "/v1/validate", {"document": bad_doc})
    payload = json.loads(body)
    assert status == 200
    assert payload["ok"] is False and payload["errors"] >= 1
    rules = {f["rule"] for f in payload["report"]["findings"]}
    assert "RV102" in rules

    status, _ = app.handle("POST", "/v1/validate", {})
    assert status == 400


# ---------------------------------------------------------------------------
# Session verify hooks


def _corrupt_plan(context):
    """Delegates to pbqp, then swaps in a phantom primitive: a buggy strategy."""
    plan = get_strategy("pbqp").build_plan(context)
    layer = next(name for name, d in plan.layer_decisions.items() if d.primitive)
    plan.layer_decisions[layer].primitive = "conv_quantum9000"
    return plan


def test_session_plan_verify_catches_buggy_strategy(monkeypatch):
    monkeypatch.setitem(
        STRATEGIES, "corrupt-test", Strategy("corrupt-test", "Buggy.", _corrupt_plan)
    )
    session = Session()
    with pytest.raises(PlanVerificationError) as excinfo:
        session.plan("alexnet", "intel-haswell", strategy="corrupt-test")
    assert "RV110" in str(excinfo.value)
    assert any(f.rule == "RV110" for f in excinfo.value.report.findings)
    # The opt-out loads the same plan without the gate.
    plan = session.plan(
        "alexnet", "intel-haswell", strategy="corrupt-test", verify=False
    )
    assert plan.network_plan.strategy == "pbqp"


def test_plan_from_file_verify_refuses_corrupt_document(tmp_path, session, plan_doc):
    bad_doc = copy.deepcopy(plan_doc)
    bad_doc["total_ms"] += 3.0
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(bad_doc))
    with pytest.raises(PlanVerificationError) as excinfo:
        session.plan_from_file(path)
    assert "RV131" in str(excinfo.value)
    plan = session.plan_from_file(path, verify=False)
    assert plan.network_plan.network_name == "alexnet"


# ---------------------------------------------------------------------------
# satellite: unregistered platform is a clear error, not a KeyError


def test_plan_from_dict_unregistered_platform_lists_registered(session, plan_doc):
    bad_doc = copy.deepcopy(plan_doc)
    bad_doc["platform"] = "gone-platform"
    with pytest.raises(ValueError, match="registered platforms") as excinfo:
        plan_from_dict(bad_doc, session.dt_graph)
    message = str(excinfo.value)
    assert "gone-platform" in message
    assert "intel-haswell" in message


@pytest.mark.parametrize("label", ["analytical", "profiled", "scaled-dt[1.0]"])
def test_cost_model_names_are_not_platforms(session, plan_doc, label):
    doc = copy.deepcopy(plan_doc)
    doc["platform"] = label
    with pytest.raises(ValueError, match="not registered"):
        plan_from_dict(doc, session.dt_graph)
    plan = dataclasses.replace(
        session.plan("alexnet", "intel-haswell").network_plan, platform_name=label
    )
    assert [finding.rule for finding in verify_plan(plan).errors] == ["RV101"]


def _platformless_models():
    return [
        ScaledTransformCostModel(AnalyticalCostModel(PLATFORMS["intel-haswell"]), 1.0),
        WallClockProfiler(repetitions=1, warmup=0),
    ]


@pytest.mark.parametrize("cost_model", _platformless_models(), ids=lambda m: m.name)
def test_platformless_plans_record_null_and_verify(cost_model):
    network = build_tiny_network()
    session = Session(cost_model=cost_model)
    plan = session.plan(network, None).network_plan
    assert plan.platform_name is None
    document = plan_to_dict(plan)
    assert document["platform"] is None
    reloaded = plan_from_dict(document, session.dt_graph)
    assert reloaded.platform_name is None
    assert plan_to_dict(reloaded) == document
    assert verify_plan(reloaded, network=network).findings == []


def test_scaled_model_plans_a_zoo_network_and_verifies():
    model = ScaledTransformCostModel(AnalyticalCostModel(PLATFORMS["intel-haswell"]), 1.0)
    assert Session(cost_model=model).plan("alexnet", None).network_plan.platform_name is None


def test_store_entry_named_after_its_model_is_not_an_unregistered_platform(tmp_path):
    Session(
        cost_model=WallClockProfiler(repetitions=1, warmup=0), cache_dir=tmp_path
    ).plan(build_tiny_network(), None, verify=False)
    (path,) = tmp_path.rglob("*.json")
    entry = json.loads(path.read_text())
    assert entry["key"]["platform"] == entry["key"]["provider"] == "profiled"
    assert "RV101" not in {finding.rule for finding in verify_document(entry).findings}
    entry["key"]["platform"] = "gone-platform"
    (finding,) = [f for f in verify_document(entry).findings if f.rule == "RV101"]
    assert finding.severity == "warning"


def test_check_cli_reports_unregistered_platform(tmp_path, plan_doc, capsys):
    bad_doc = copy.deepcopy(plan_doc)
    bad_doc["platform"] = "gone-platform"
    path = tmp_path / "orphan.json"
    path.write_text(json.dumps(bad_doc))
    assert main(["check", str(path)]) == 1
    assert "RV101" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# satellite: format mismatches name the expected token


def test_format_mismatch_messages_name_expected_token(session):
    with pytest.raises(ValueError, match=r"repro/plan/v2"):
        plan_from_dict({"format": "repro/plan/v0"}, session.dt_graph)
    with pytest.raises(ValueError, match=r"repro/cost-tables/v3"):
        cost_tables_from_dict({"format": "repro/cost-tables/v1"}, session.dt_graph)
    with pytest.raises(ValueError, match=r"repro/frontier/v1"):
        Frontier.from_dict({"format": "nope"}, session.dt_graph)
