"""Static plan verifier: mutation corpus, canonical-grid cleanliness, fan-out.

The mutation corpus programmatically corrupts one field class of a canonical
serialized plan per case — decision primitives, layout hops, dtype tokens,
cost-vector components, format versions, join layouts — and asserts the
verifier flags every corruption with the expected rule code.  The canonical
grid asserts the dual: freshly planned zoo plans across platforms and dtypes
produce *zero* error findings — and, since the fan-out-aware encoding, zero
RV140 double-pricing warnings too (the detector stays as a regression
tripwire, separately exercised on a hand-corrupted document).
"""

from __future__ import annotations

import copy
import json
import random
import re

import pytest

from repro.analysis import plan_verifier
from repro.analysis.plan_verifier import (
    CHECKS,
    KNOWN_FORMATS,
    PlanVerificationError,
    detect_kind,
    raise_for_report,
    verify_document,
)
from repro.api import Session
from repro.cost.serialize import cost_tables_to_dict, plan_to_dict
from repro.service.app import build_plan_document

#: Seed for every choice the corpus makes, so failures reproduce exactly.
CORPUS_SEED = 1234

CANONICAL = (
    [("alexnet", platform, "fp32") for platform in
     ("intel-haswell", "arm-cortex-a57", "avx512-server", "gpu-sim")]
    + [("alexnet", "intel-haswell", dtype) for dtype in ("fp16", "int8")]
    + [(model, platform, dtype)
       for model in ("resnet18", "mobilenet_v1")
       for platform in ("intel-haswell", "arm-cortex-a57")
       for dtype in ("fp32", "int8")]
)


@pytest.fixture(scope="module")
def session():
    return Session()


@pytest.fixture(scope="module")
def alexnet_doc(session):
    return plan_to_dict(session.plan("alexnet", "intel-haswell").network_plan)


@pytest.fixture(scope="module")
def alexnet_int8_doc(session):
    return plan_to_dict(
        session.plan("alexnet", "intel-haswell", dtype="int8").network_plan
    )


@pytest.fixture(scope="module")
def resnet_doc(session):
    return plan_to_dict(session.plan("resnet18", "intel-haswell").network_plan)


def rules_of(report):
    return {finding.rule for finding in report.findings}


# ---------------------------------------------------------------------------
# canonical grid: zero false positives


@pytest.mark.parametrize("model,platform,dtype", CANONICAL)
def test_canonical_plans_verify_clean(session, model, platform, dtype):
    doc = plan_to_dict(session.plan(model, platform, dtype=dtype).network_plan)
    report = verify_document(doc, source=f"{model}/{platform}/{dtype}")
    assert report.ok, report.summary() + "\n" + report.to_json()
    assert not report.errors


def test_canonical_tables_verify_clean(session):
    context = session.context_for("alexnet", "intel-haswell", 1, 1, "fp32")
    report = verify_document(cost_tables_to_dict(context.tables))
    assert report.ok and not report.findings, report.to_json()


# ---------------------------------------------------------------------------
# mutation corpus


def _conv_entries(doc):
    return [entry for entry in doc["layers"] if entry["primitive"]]


def _converting_edges(doc):
    return [edge for edge in doc["edges"] if edge["hops"]]


def mutate_format(doc, rng):
    doc["format"] = "repro/plan/v0"


def mutate_platform(doc, rng):
    doc["platform"] = "gone-platform"


def mutate_dtype(doc, rng):
    doc["dtype"] = "int4"


def mutate_threads(doc, rng):
    doc["threads"] = 0


def mutate_primitive_unknown(doc, rng):
    rng.choice(_conv_entries(doc))["primitive"] = "conv_quantum9000"


def mutate_hop_not_an_edge(doc, rng):
    edge = rng.choice(_converting_edges(doc))
    # X -> X is never a registered direct transform.
    edge["hops"] = [edge["hops"][0], edge["hops"][0]]


def mutate_chain_endpoints(doc, rng):
    edge = rng.choice(_converting_edges(doc))
    edge["source_layout"] = edge["target_layout"]


def mutate_layer_missing(doc, rng):
    doc["layers"].pop(rng.randrange(len(doc["layers"])))


def mutate_cost_component(doc, rng):
    doc["cost_vector"]["time_ms"] *= 1.5


def mutate_total_ms(doc, rng):
    doc["total_ms"] += 1.0


MUTATIONS = [
    ("format-token", mutate_format, "RV100"),
    ("unregistered-platform", mutate_platform, "RV101"),
    ("unknown-dtype", mutate_dtype, "RV102"),
    ("nonpositive-threads", mutate_threads, "RV103"),
    ("unknown-primitive", mutate_primitive_unknown, "RV110"),
    ("hop-not-an-edge", mutate_hop_not_an_edge, "RV121"),
    ("chain-endpoint-contradiction", mutate_chain_endpoints, "RV122"),
    ("missing-layer", mutate_layer_missing, "RV113"),
    ("cost-vector-component", mutate_cost_component, "RV130"),
    ("total-ms-drift", mutate_total_ms, "RV131"),
]


@pytest.mark.parametrize(
    "name,mutate,rule", MUTATIONS, ids=[name for name, _, _ in MUTATIONS]
)
def test_mutation_is_flagged_with_expected_rule(alexnet_doc, name, mutate, rule):
    doc = copy.deepcopy(alexnet_doc)
    mutate(doc, random.Random(CORPUS_SEED))
    report = verify_document(doc, source=name)
    assert not report.ok, f"{name}: verifier missed the corruption"
    assert rule in rules_of(report), (
        f"{name}: expected {rule}, got {sorted(rules_of(report))}\n{report.to_json()}"
    )


def test_unsupported_primitive_on_int8_plan(alexnet_int8_doc):
    """FFT declines int8; grafting it onto an int8 plan must raise RV111."""
    doc = copy.deepcopy(alexnet_int8_doc)
    entry = random.Random(CORPUS_SEED).choice(_conv_entries(doc))
    entry["primitive"] = "fft_2d_chw_vf1"
    entry["input_layout"] = "CHW"
    entry["output_layout"] = "CHW"
    report = verify_document(doc)
    assert "RV111" in rules_of(report), report.to_json()


def test_join_layout_mismatch_on_resnet(resnet_doc):
    doc = copy.deepcopy(resnet_doc)
    inbound = {}
    for edge in doc["edges"]:
        inbound.setdefault(edge["consumer"], []).append(edge)
    joins = [edges for edges in inbound.values() if len(edges) >= 2]
    assert joins, "resnet18 must have join layers"
    edge = random.Random(CORPUS_SEED).choice(joins)[0]
    edge["target_layout"] = "CHW" if edge["target_layout"] != "CHW" else "HWC"
    report = verify_document(doc)
    assert "RV120" in rules_of(report), report.to_json()


def test_every_mutation_raises_through_raise_for_report(alexnet_doc):
    doc = copy.deepcopy(alexnet_doc)
    mutate_cost_component(doc, random.Random(CORPUS_SEED))
    report = verify_document(doc)
    with pytest.raises(PlanVerificationError) as excinfo:
        raise_for_report(report)
    assert excinfo.value.report is report
    assert "RV130" in str(excinfo.value)


# ---------------------------------------------------------------------------
# fan-out double-pricing detector (regression tripwire)


def test_fanout_detector_silent_on_fresh_resnet18(resnet_doc):
    """Fan-out-aware encoding: fresh plans price shared chains exactly once."""
    report = verify_document(resnet_doc)
    fanout = [f for f in report.findings if f.rule == "RV140"]
    assert not fanout, [f.message for f in fanout]
    assert report.ok


def test_fanout_detector_fires_on_double_priced_document(resnet_doc):
    """RV140 still trips when a shared chain is priced on more than one edge.

    Fresh plans attribute each (producer, target layout) chain to one edge
    and zero the duplicates; re-inflating a zeroed duplicate reproduces the
    pre-fix double pricing.  The recomputed totals (RV130/RV131) charge the
    group's max, so only the tripwire — not the cost recomputation — fires.
    """
    doc = copy.deepcopy(resnet_doc)
    groups = {}
    for edge in doc["edges"]:
        if edge["hops"]:
            key = (edge["producer"], edge["target_layout"])
            groups.setdefault(key, []).append(edge)
    shared = next(edges for edges in groups.values() if len(edges) >= 2)
    carrier = max(shared, key=lambda edge: edge["cost"])
    duplicate = next(edge for edge in shared if edge is not carrier)
    assert duplicate["cost"] == 0.0
    duplicate["cost"] = carrier["cost"]

    report = verify_document(doc)
    fanout = [f for f in report.findings if f.rule == "RV140"]
    assert fanout, report.to_json()
    assert all(f.severity == "warning" for f in fanout)
    assert report.ok  # warnings never invalidate a plan
    producer = carrier["producer"]
    hits = [f for f in fanout if producer in f.message or producer in f.location]
    assert hits, [f.message for f in fanout]
    match = re.search(r"double-priced by ([0-9.]+) ms", hits[0].message)
    assert match, hits[0].message
    assert float(match.group(1)) > 0.0


# ---------------------------------------------------------------------------
# other document kinds


def test_tables_mutations(session):
    context = session.context_for("alexnet", "intel-haswell", 1, 1, "fp32")
    doc = cost_tables_to_dict(context.tables)

    bad = copy.deepcopy(doc)
    bad["dtype"] = "bf16"
    assert "RV102" in rules_of(verify_document(bad))

    bad = copy.deepcopy(doc)
    layer_costs = next(iter(bad["node_costs"].values()))
    layer_costs["conv_quantum9000"] = 1.0
    assert "RV110" in rules_of(verify_document(bad))


def test_store_entry_roundtrip_and_mutations(tmp_path, session):
    cached = Session(cache_dir=tmp_path)
    cached.plan("alexnet", "intel-haswell")
    paths = sorted(tmp_path.glob("*/*.json"))
    assert paths, "cost store wrote no entries"
    doc = json.loads(paths[0].read_text())
    report = verify_document(doc, source=str(paths[0]))
    assert report.ok, report.to_json()

    bad = copy.deepcopy(doc)
    bad["key"]["dtype"] = "int8" if bad["key"]["dtype"] != "int8" else "fp32"
    assert "RV150" in rules_of(verify_document(bad))

    # Unregistered platforms in store entries are a warning, not an error:
    # CostStore.evict deliberately keeps entries for platforms that were
    # unregistered after profiling.
    bad = copy.deepcopy(doc)
    bad["key"]["platform"] = "gone-platform"
    report = verify_document(bad)
    assert report.ok
    assert "RV101" in rules_of(report)

    bad = copy.deepcopy(doc)
    bad["key"]["platform_version"] = "0:deadbeef"
    report = verify_document(bad)
    assert report.ok
    assert "RV152" in rules_of(report)


def test_frontier_envelope_mutation(session):
    frontier = session.plan_frontier(
        "alexnet", "intel-haswell", budget_steps=2, dtypes=("fp32",)
    )
    doc = frontier.to_dict()
    assert verify_document(doc).ok

    bad = copy.deepcopy(doc)
    bad["points"][0]["vector"]["time_ms"] *= 2.0
    assert "RV153" in rules_of(verify_document(bad))


def test_selection_result_envelope_is_an_unknown_format(alexnet_doc):
    doc = {"format": "repro/selection-result/v1", "plan": copy.deepcopy(alexnet_doc)}
    report = verify_document(doc)
    assert not report.ok
    assert rules_of(report) == {"RV100"}


def test_service_plan_envelope_mutation(session):
    doc = build_plan_document(session, "alexnet", "intel-haswell")
    assert verify_document(doc).ok

    bad = copy.deepcopy(doc)
    bad["total_ms"] += 1.0
    assert "RV153" in rules_of(verify_document(bad))


# ---------------------------------------------------------------------------
# report mechanics


def test_detect_kind_covers_every_known_format(alexnet_doc):
    assert detect_kind(alexnet_doc) == "plan"
    assert set(KNOWN_FORMATS.values()) == {
        "plan", "tables", "frontier", "store-entry", "service-plan"
    }


def test_unknown_document_shapes_are_rv100():
    assert "RV100" in rules_of(verify_document([1, 2, 3]))
    assert "RV100" in rules_of(verify_document({"format": "repro/unknown/v9"}))


def test_report_json_is_byte_identical_across_runs(alexnet_doc):
    first = verify_document(copy.deepcopy(alexnet_doc)).to_json()
    second = verify_document(copy.deepcopy(alexnet_doc)).to_json()
    assert first == second
    parsed = json.loads(first)
    assert parsed["format"] == "repro/analysis-report/v1"
    assert json.dumps(parsed, indent=2, sort_keys=True) == first


# ---------------------------------------------------------------------------
# the check table


def test_checks_table_covers_every_kind_and_check_once():
    """A repeated kind would silently drop a row of checks."""
    assert set(CHECKS) == set(KNOWN_FORMATS.values())
    listed = [check for _, checks in CHECKS.values() for check in checks]
    defined = [
        fn for name, fn in vars(plan_verifier).items() if name.startswith("check_")
    ]
    assert len(listed) == len(set(listed)) == len(defined) == 13
    assert set(listed) == set(defined)


def test_crashing_check_is_one_rv190_naming_it(alexnet_doc, monkeypatch):
    def check_that_crashes(ctx):
        raise RuntimeError("boom")
        yield  # pragma: no cover - makes this a generator like the real checks

    doc = copy.deepcopy(alexnet_doc)
    mutate_total_ms(doc, random.Random(CORPUS_SEED))
    expected = verify_document(doc).findings
    assert "RV131" in {finding.rule for finding in expected}
    context_type, checks = CHECKS["plan"]
    monkeypatch.setitem(
        CHECKS, "plan", (context_type, checks[:1] + (check_that_crashes,) + checks[1:])
    )
    report = verify_document(doc)
    crashes = [finding for finding in report.findings if finding.rule == "RV190"]
    assert len(crashes) == 1
    assert crashes[0].severity == "error"
    assert "'check_that_crashes' crashed: RuntimeError: boom" in crashes[0].message
    # Every other check still ran, the ones after the crashed one included.
    assert [finding for finding in report.findings if finding.rule != "RV190"] == expected
