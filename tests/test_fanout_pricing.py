"""Fan-out-aware conversion pricing: solver objective == executor cost.

The executor deduplicates conversion chains by (producer, target layout) —
a producer fanning out into several consumers demanding the same layout
converts once and reuses the cached tensor — and the fan-out-aware PBQP
encoding prices exactly that objective through per-producer auxiliary
conversion nodes.  These tests pin the whole pipeline to the grouped
formula: PBQP equals the exhaustive network-level reference, the plan's
predicted conversion accounting equals the executed trace, the RV140
double-pricing tripwire reports zero on fresh plans (ResNet-18's ``pool1``
fan-out, the motivating case, pinned on both paper platforms), the chain's
cost lands on the edge whose consumer runs first, and legacy double-priced
documents are refused rather than loaded.
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest

from repro.analysis.plan_verifier import PlanVerificationError, verify_document
from repro.api import Session
from repro.core.legalize import finalize_plan
from repro.core.plan import EdgeDecision, conversion_groups
from repro.core.selector import PBQPSelector
from repro.cost.platform import PLATFORMS
from repro.cost.serialize import plan_from_dict, plan_to_dict, save_plan
from repro.graph.layer import ConcatLayer, ConvLayer, InputLayer
from repro.graph.network import Network
from repro.layouts.dt_graph import DTGraph
from repro.layouts.transforms import default_transform_library
from repro.pbqp.bruteforce import brute_force_network_select
from repro.primitives.registry import PrimitiveLibrary, default_primitive_library
from repro.runtime import NetworkExecutor, WeightStore

#: A small mixed-layout library keeping the brute-force space enumerable:
#: one CHW, one CHWc4, one CHWc8, one HWC and one HCW primitive.
SMALL_LIBRARY_NAMES = [
    "sum2d",
    "direct_mchw_vf4",
    "direct_mchw_vf8",
    "im2row_vf1",
    "winograd_1d_m2_r3_vf1",
]


@pytest.fixture(scope="module")
def small_library():
    full = default_primitive_library()
    return PrimitiveLibrary([full.get(name) for name in SMALL_LIBRARY_NAMES])


@pytest.fixture(scope="module")
def small_dt(small_library):
    return DTGraph(small_library.layouts_used(), default_transform_library())


@pytest.fixture(scope="module")
def session():
    return Session()


def fanout_network(consumers: int, mixed: bool) -> Network:
    """One producer convolution fanning out into 2-4 consumer convolutions.

    ``mixed`` alternates consumer kernels between 3x3 and 1x1, so different
    consumers may end up demanding different input layouts (mixed targets).
    """
    net = Network(f"fanout-{consumers}-{'mixed' if mixed else 'same'}")
    net.add_layer(InputLayer("data", shape=(4, 16, 16)))
    net.add_layer(
        ConvLayer("producer", out_channels=8, kernel=3, padding=1), ["data"]
    )
    names = []
    for index in range(consumers):
        kernel = 1 if mixed and index % 2 else 3
        name = f"consumer{index}"
        net.add_layer(
            ConvLayer(name, out_channels=8, kernel=kernel, padding=kernel // 2),
            ["producer"],
        )
        names.append(name)
    net.add_layer(ConcatLayer("join"), names)
    net.validate()
    return net


def chain_groups(plan):
    """The (producer, target layout) dedup groups of a plan's conversions."""
    groups = {}
    for edge in plan.conversions():
        groups.setdefault((edge.producer, edge.target_layout.name), []).append(edge)
    return groups


# ---------------------------------------------------------------------------
# PBQP == exhaustive reference under the grouped objective


class TestPBQPMatchesBruteforce:
    @pytest.mark.parametrize(
        "consumers,mixed",
        [(2, False), (2, True), (3, False), (3, True), (4, True)],
    )
    def test_solver_equals_grouped_reference(
        self, consumers, mixed, small_library, small_dt, intel
    ):
        context = Session(library=small_library, dt_graph=small_dt).context_for(
            fanout_network(consumers, mixed), intel
        )
        conv, wildcard, reference_cost = brute_force_network_select(context)
        plan = PBQPSelector().select(context)
        assert plan.metadata["pbqp_optimal"] is True
        assert plan.metadata["pbqp_cost"] == pytest.approx(reference_cost, rel=1e-9)
        # The solver's objective IS the plan's (deduplicated) total cost.
        assert plan.total_cost == pytest.approx(plan.metadata["pbqp_cost"], rel=1e-9)
        # Legalizing the reference's choices prices identically.
        reference_plan = finalize_plan(context, "bruteforce", conv, wildcard)
        assert reference_plan.total_cost == pytest.approx(reference_cost, rel=1e-9)
        assert plan.total_cost <= reference_plan.total_cost + 1e-12

    def test_shared_chain_priced_once_in_plan(self, small_library, small_dt, intel):
        """Force a fan-out conversion and check exactly one edge carries it."""
        context = Session(library=small_library, dt_graph=small_dt).context_for(
            fanout_network(2, mixed=False), intel
        )
        layouts = {layout.name: layout for layout in context.dt_graph.layouts}
        # Producer emits CHW; both consumers demand CHWc8: one shared chain.
        plan = finalize_plan(
            context,
            "forced",
            {
                "producer": "sum2d",
                "consumer0": "direct_mchw_vf8",
                "consumer1": "direct_mchw_vf8",
            },
            {
                "data": layouts["CHW"],
                "join": layouts["CHWc8"],
            },
        )
        groups = chain_groups(plan)
        shared = groups[("producer", "CHWc8")]
        assert len(shared) == 2
        carried = [edge for edge in shared if edge.cost > 0]
        zeroed = [edge for edge in shared if edge.cost == 0.0]
        assert len(carried) == 1 and len(zeroed) == 1
        # Both edges keep their chain so the executor finds the cached tensor.
        assert all(edge.chain is not None and len(edge.chain) for edge in shared)
        shape = context.tables.shapes["producer"]
        assert carried[0].cost == pytest.approx(
            context.tables.dt_costs[shape][("CHW", "CHWc8")], rel=1e-12
        )


def reordered_fanout_network() -> Network:
    """A fan-out whose document edge order differs from its execution order.

    ``p`` feeds ``x = concat(p, q)`` and ``y = conv(p)``.  The edge list
    holds ``(p, x)`` before ``(p, y)``, but ``x`` must wait for ``q``, so
    ``y`` runs first.
    """
    net = Network("fanout-reordered")
    net.add_layer(InputLayer("data", shape=(4, 16, 16)))
    net.add_layer(ConvLayer("p", out_channels=8, kernel=3, padding=1), ["data"])
    net.add_layer(ConvLayer("q", out_channels=8, kernel=3, padding=1), ["data"])
    net.add_layer(ConcatLayer("x"), ["p", "q"])
    net.add_layer(ConvLayer("y", out_channels=16, kernel=3, padding=1), ["p"])
    net.add_layer(ConcatLayer("out"), ["x", "y"])
    net.validate()
    return net


class TestCarrierFollowsExecutionOrder:
    def test_first_consumer_to_run_carries_the_chain(
        self, session, small_library, small_dt, intel, tmp_path
    ):
        network = reordered_fanout_network()
        edges = [(edge.producer, edge.consumer) for edge in network.edges()]
        assert edges.index(("p", "x")) < edges.index(("p", "y"))
        order = [layer.name for layer in network.topological_order()]
        assert order.index("y") < order.index("x")

        context = Session(library=small_library, dt_graph=small_dt).context_for(network, intel)
        layouts = {layout.name: layout for layout in context.dt_graph.layouts}
        plan = finalize_plan(
            context,
            "forced",
            {"p": "sum2d", "q": "direct_mchw_vf8", "y": "direct_mchw_vf8"},
            {"data": layouts["CHW"], "x": layouts["CHWc8"], "out": layouts["CHWc8"]},
        )
        by_edge = {(edge.producer, edge.consumer): edge for edge in plan.edge_decisions}
        shape = context.tables.shapes["p"]
        assert by_edge["p", "y"].cost == pytest.approx(
            context.tables.dt_costs[shape][("CHW", "CHWc8")], rel=1e-12
        )
        assert by_edge["p", "y"].cost > 0
        assert by_edge["p", "x"].cost == 0.0
        assert by_edge["p", "x"].needs_conversion

        x = np.random.default_rng(3).standard_normal((4, 16, 16)).astype(np.float32)
        executor = NetworkExecutor(network, plan, small_library, WeightStore(network, seed=5))
        _, trace = executor.run_traced(x)
        assert ("p", "y") in trace.conversion_seconds
        assert ("p", "x") not in trace.conversion_seconds

        path = tmp_path / "reordered.json"
        save_plan(plan, path)
        report = session.plan_from_file(path, network=network).execute()
        entries = {(entry.producer, entry.consumer): entry for entry in report.conversions}
        assert entries["p", "x"].deduplicated
        carrier = entries["p", "y"]
        assert not carrier.deduplicated
        assert carrier.predicted_ms > 0 and carrier.measured_ms > 0
        assert report.conversions_executed == report.conversions_planned


class TestConversionGroups:
    """The shared-chain rule itself, on hand-built edge decisions."""

    @staticmethod
    def edge(dt, producer, consumer, source, target):
        layouts = {layout.name: layout for layout in dt.layouts}
        chain = None
        if source != target:
            chain = dt.shortest_path(layouts[source], layouts[target], (8, 16, 16)).chain
        return EdgeDecision(producer, consumer, layouts[source], layouts[target], chain)

    def test_groups_converting_edges_by_producer_and_target(self, small_dt):
        edges = [
            self.edge(small_dt, "p", "a", "CHW", "CHWc8"),
            self.edge(small_dt, "p", "b", "CHW", "HWC"),
            self.edge(small_dt, "p", "c", "CHW", "CHWc8"),
            self.edge(small_dt, "p", "d", "CHW", "CHW"),
            self.edge(small_dt, "q", "a", "CHW", "CHWc8"),
        ]
        assert all(edge.needs_conversion for edge in edges if edge.consumer != "d")
        assert not edges[3].needs_conversion
        groups = conversion_groups(edges, ["p", "q", "a", "b", "c", "d"])
        assert {key: [e.consumer for e in members] for key, members in groups.items()} == {
            ("p", "CHWc8"): ["a", "c"],
            ("p", "HWC"): ["b"],
            ("q", "CHWc8"): ["a"],
        }

    def test_members_follow_execution_order_not_edge_order(self, small_dt):
        edges = [
            self.edge(small_dt, "p", consumer, "CHW", "CHWc8")
            for consumer in ("x", "y", "z")
        ]
        groups = conversion_groups(edges, ["p", "z", "x", "y"])
        assert [edge.consumer for edge in groups["p", "CHWc8"]] == ["z", "x", "y"]
        # The caller's list is not reordered.
        assert [edge.consumer for edge in edges] == ["x", "y", "z"]


# ---------------------------------------------------------------------------
# predicted conversion accounting == executed trace


class TestPlanMatchesTrace:
    @pytest.mark.parametrize("consumers,mixed", [(2, False), (3, True), (4, True)])
    def test_trace_executes_one_chain_per_group(
        self, consumers, mixed, small_library, small_dt, intel
    ):
        network = fanout_network(consumers, mixed)
        context = Session(library=small_library, dt_graph=small_dt).context_for(network, intel)
        plan = PBQPSelector().select(context)
        weights = WeightStore(network, seed=5)
        x = np.random.default_rng(3).standard_normal((4, 16, 16)).astype(np.float32)
        executor = NetworkExecutor(network, plan, small_library, weights)
        _, trace = executor.run_traced(x)
        groups = chain_groups(plan)
        assert trace.conversions_executed == len(groups)
        # Exactly one member of every group carries the chain cost.
        for members in groups.values():
            assert sum(1 for edge in members if edge.cost > 0) <= 1
        # The plan's conversion total is the grouped total, nothing more.
        assert plan.dt_cost == pytest.approx(
            sum(max(edge.cost for edge in members) for members in groups.values()),
            rel=1e-12,
        )

    def test_execution_report_accounts_per_group(self, session):
        """API layer: ExecutionReport attributes a deduped chain to one consumer."""
        plan = session.plan(fanout_network(3, mixed=False), "intel-haswell")
        report = plan.execute()
        groups = chain_groups(plan.network_plan)
        assert report.conversions_planned == len(groups)
        assert report.conversions_executed == report.conversions_planned
        duplicates = [entry for entry in report.conversions if entry.deduplicated]
        assert len(duplicates) == len(plan.network_plan.conversions()) - len(groups)
        assert all(entry.predicted_ms == 0.0 for entry in duplicates)
        assert all(entry.measured_ms == 0.0 for entry in duplicates)

    def test_fresh_fanout_plans_verify_without_rv140(
        self, small_library, small_dt, intel
    ):
        for consumers, mixed in [(2, False), (3, True)]:
            context = Session(library=small_library, dt_graph=small_dt).context_for(
                fanout_network(consumers, mixed), intel
            )
            doc = plan_to_dict(PBQPSelector().select(context))
            report = verify_document(doc)
            fanout = [f for f in report.findings if f.rule == "RV140"]
            assert not fanout, [f.message for f in fanout]


# ---------------------------------------------------------------------------
# the motivating regression, pinned on both paper platforms


class TestResNet18Pool1Regression:
    @pytest.mark.parametrize("platform", ["intel-haswell", "arm-cortex-a57"])
    def test_pool1_gap_is_zero(self, session, platform):
        plan = session.plan("resnet18", platform).network_plan
        doc = plan_to_dict(plan)
        report = verify_document(doc, source=f"resnet18/{platform}")
        assert report.ok
        assert not [f for f in report.findings if f.rule == "RV140"], report.to_json()
        # pool1 fans out into the first residual block; its shared chain must
        # be carried by exactly one edge.
        groups = chain_groups(plan)
        pool1_groups = {
            key: members for key, members in groups.items() if key[0] == "pool1"
        }
        assert pool1_groups, "resnet18 pool1 must still require a conversion"
        for members in pool1_groups.values():
            assert len(members) >= 2
            assert sum(1 for edge in members if edge.cost > 0) == 1

    def test_solver_objective_equals_plan_total(self, session):
        for platform in ("intel-haswell", "arm-cortex-a57"):
            plan = session.plan("resnet18", platform).network_plan
            assert plan.metadata["pbqp_optimal"] is True
            assert plan.total_cost == pytest.approx(
                plan.metadata["pbqp_cost"], rel=1e-9
            )


# ---------------------------------------------------------------------------
# legacy double-priced documents


def make_legacy_document(doc: dict) -> dict:
    """Rebuild the pre-fix serialization: every group member fully priced."""
    legacy = copy.deepcopy(doc)
    legacy["format"] = "repro/plan/v1"
    carriers = {}
    for edge in legacy["edges"]:
        if edge["hops"]:
            key = (edge["producer"], edge["target_layout"])
            carriers[key] = max(carriers.get(key, 0.0), edge["cost"])
    extra = 0.0
    for edge in legacy["edges"]:
        if edge["hops"] and edge["cost"] == 0.0:
            key = (edge["producer"], edge["target_layout"])
            edge["cost"] = carriers[key]
            extra += carriers[key]
    legacy["total_ms"] = doc["total_ms"] + 1e3 * extra
    legacy["cost_vector"] = dict(doc["cost_vector"])
    legacy["cost_vector"]["time_ms"] = legacy["total_ms"]
    return legacy


class TestLegacyRefused:
    @pytest.fixture()
    def legacy_doc(self, small_library, small_dt, intel):
        """A v1 rendering of a plan with a genuinely shared chain."""
        context = Session(library=small_library, dt_graph=small_dt).context_for(
            fanout_network(2, mixed=False), intel
        )
        layouts = {layout.name: layout for layout in context.dt_graph.layouts}
        plan = finalize_plan(
            context,
            "forced",
            {
                "producer": "sum2d",
                "consumer0": "direct_mchw_vf8",
                "consumer1": "direct_mchw_vf8",
            },
            {"data": layouts["CHW"], "join": layouts["CHWc8"]},
        )
        return make_legacy_document(plan_to_dict(plan))

    def test_plan_from_dict_refuses(self, session, legacy_doc):
        with pytest.raises(ValueError, match="re-planned"):
            plan_from_dict(legacy_doc, session.dt_graph)

    def test_plan_from_file_refuses(self, session, legacy_doc, tmp_path):
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(legacy_doc, sort_keys=True))
        network = fanout_network(2, mixed=False)
        with pytest.raises(PlanVerificationError):
            session.plan_from_file(path, network=network)
        with pytest.raises(ValueError, match="re-planned"):
            session.plan_from_file(path, network=network, verify=False)

    def test_verifier_reports_one_rv100(self, legacy_doc):
        report = verify_document(legacy_doc)
        assert [finding.rule for finding in report.findings] == ["RV100"]
        assert "repro/plan/v2" in report.findings[0].message
