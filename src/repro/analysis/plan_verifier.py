"""Static verification of serialized plans, tables and frontier documents.

The paper frames primitive selection as a formal optimization (PBQP over
per-layer costs plus layout-transition edges), which makes a plan's legality
and its claimed cost vector *statically checkable facts*: every decision's
primitive must pass ``supports()`` for its (scenario, platform, dtype), every
conversion chain must walk real DT-graph edges, every join must operate in
exactly one layout, and the serialized :class:`~repro.multiobj.vector.
CostVector` must equal what the document's own decisions add up to.  This
module proves those facts without executing anything — hand-edited plans,
stale store entries, service documents and the output of brand-new
strategies are all checked the same way.

Each check is a plain function listed under its document kind in
:data:`CHECKS`, producing findings with stable ``RV1xx`` rule codes:

==========  ========  =====================================================
rule        severity  meaning
==========  ========  =====================================================
``RV100``   error     unknown/mismatched document format token
``RV101``   error     platform is not in the registry (warning on store
                      entries, which legally outlive registrations)
``RV102``   error     dtype is not a registered precision
``RV103``   error     malformed scalar field (threads/batch/lists)
``RV104``   warning   network not in the zoo — structural checks skipped
``RV110``   error     unknown primitive / convolution without a primitive
``RV111``   error     primitive fails ``supports()`` for its scenario
                      (e.g. FFT carrying int8)
``RV112``   error     decision layouts contradict the primitive's layouts
``RV113``   error     layer/edge set disagrees with the network graph
``RV120``   error     a join consumes more than one layout
``RV121``   error     conversion hop is not a DT-graph edge / unknown layout
``RV122``   error     chain endpoints contradict the edge or its decisions
``RV130``   error     recomputed cost-vector component differs (conversion
                      chains count once per (producer, target layout), the
                      executor's dedup — double-priced totals fail)
``RV131``   error     recomputed ``total_ms`` differs (same dedup formula)
``RV140``   warning   fan-out double pricing: a shared conversion chain the
                      executor dedups is priced on more than one edge —
                      0.0 on every canonical plan since the fan-out-aware
                      encoding; kept as the regression tripwire
``RV150``   error     store-entry key contradicts its embedded tables
``RV151``   error     table scenario contradicts the table's dtype/batch
``RV152``   warning   store-entry platform_version is stale
``RV153``   error     a frontier point's vector or a service plan
                      document's fields contradict the embedded plan
                      (store-entry keys report ``RV150``)
``RV190``   error     a check crashed (verifier bug — report it)
==========  ========  =====================================================

Entry points: :func:`verify_document` (any raw JSON document),
:func:`verify_file`, :func:`verify_plan` (an in-memory
:class:`~repro.core.plan.NetworkPlan`).  Hooks that refuse illegal inputs
raise :class:`PlanVerificationError` carrying the full report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.analysis.passes import Finding, Report
from repro.core.plan import NetworkPlan
from repro.cost.platform import PLATFORMS, Platform, platform_version
from repro.cost.serialize import (
    COST_TABLE_FORMAT,
    PLAN_FORMAT,
    plan_to_dict,
)
from repro.cost.store import STORE_ENTRY_FORMAT
from repro.graph.network import Network
from repro.graph.scenario import DTYPES, ConvScenario
from repro.layouts.dt_graph import DTGraph
from repro.layouts.layout import STANDARD_LAYOUTS, get_layout
from repro.layouts.transforms import default_transform_library
from repro.models import MODEL_BUILDERS, build_model
from repro.multiobj.frontier import FRONTIER_FORMAT
from repro.multiobj.vector import OBJECTIVES
from repro.primitives.registry import PrimitiveLibrary, default_primitive_library
from repro.service.app import SERVICE_FORMAT

#: Document format token -> subject kind handled by the verifier.
KNOWN_FORMATS: Dict[str, str] = {
    PLAN_FORMAT: "plan",
    COST_TABLE_FORMAT: "tables",
    FRONTIER_FORMAT: "frontier",
    STORE_ENTRY_FORMAT: "store-entry",
    SERVICE_FORMAT: "service-plan",
}

#: Tolerance of the cost recomputation: plans serialize the exact floats the
#: accumulation produced (and JSON round-trips Python floats exactly), so
#: anything beyond rounding noise is a genuine mispricing.
_REL_TOL = 1e-9
_ABS_TOL = 1e-12


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=_ABS_TOL)


def _is_count(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


class PlanVerificationError(ValueError):
    """An illegal plan/tables document was refused by a verify hook."""

    def __init__(self, report: Report) -> None:
        self.report = report
        super().__init__(report.summary())


def detect_kind(document: dict) -> Optional[str]:
    """The subject kind of a raw document, or ``None`` for foreign formats."""
    return KNOWN_FORMATS.get(document.get("format"))


# ---------------------------------------------------------------------------
# Verification contexts
# ---------------------------------------------------------------------------


@dataclass
class VerifierEnv:
    """Shared lookup state for one verification run."""

    library: PrimitiveLibrary
    dt_graph: DTGraph
    network_override: Optional[Network] = None
    _networks: Dict[str, Network] = field(default_factory=dict)

    def resolve_network(self, name: object) -> Optional[Network]:
        """The zoo network a document names, built at most once per run."""
        if self.network_override is not None and self.network_override.name == name:
            return self.network_override
        if not isinstance(name, str):
            return None
        if name not in self._networks and name in MODEL_BUILDERS:
            self._networks[name] = build_model(name)
        return self._networks.get(name)


def _default_env() -> VerifierEnv:
    library = default_primitive_library()
    return VerifierEnv(
        library=library,
        dt_graph=DTGraph(library.layouts_used(), default_transform_library()),
    )


@dataclass
class PlanContext:
    """A plan document plus everything its checks resolve up front."""

    document: dict
    env: VerifierEnv
    prefix: str = ""
    dtype: str = "fp32"
    dtype_ok: bool = True
    batch_ok: bool = True
    platform: Optional[Platform] = None
    platform_label: str = ""
    network: Optional[Network] = None
    #: Per-convolution-layer scenarios at the plan's (batch, dtype); ``None``
    #: when the network is unknown or the dtype/batch fields are themselves
    #: invalid (those findings come from :func:`check_plan_fields`).
    scenarios: Optional[Dict[str, ConvScenario]] = None

    def __post_init__(self) -> None:
        doc = self.document
        self.dtype = doc.get("dtype", "fp32")
        self.dtype_ok = self.dtype in DTYPES
        self.batch_ok = _is_count(doc.get("batch", 1))
        self.platform_label = str(doc.get("platform"))
        name = doc.get("platform")
        if isinstance(name, str) and name in PLATFORMS:
            self.platform = PLATFORMS[name]
        self.network = self.env.resolve_network(doc.get("network"))
        if self.network is not None and self.dtype_ok and self.batch_ok:
            batch = doc.get("batch", 1)
            self.scenarios = {
                layer: scenario.with_batch(batch).with_dtype(self.dtype)
                for layer, scenario in self.network.conv_scenarios().items()
            }

    @property
    def layers(self) -> List[dict]:
        entries = self.document.get("layers")
        if not isinstance(entries, list):
            return []
        return [entry for entry in entries if isinstance(entry, dict)]

    @property
    def edges(self) -> List[dict]:
        entries = self.document.get("edges")
        if not isinstance(entries, list):
            return []
        return [entry for entry in entries if isinstance(entry, dict)]

    def decisions(self) -> Dict[str, dict]:
        return {entry["layer"]: entry for entry in self.layers if "layer" in entry}


@dataclass
class TablesContext:
    """A cost-tables document plus its reconstructed scenarios."""

    document: dict
    env: VerifierEnv
    prefix: str = ""
    scenarios: Dict[str, ConvScenario] = field(default_factory=dict)
    #: Per-layer construction errors, reported by :func:`check_tables_fields`.
    scenario_errors: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        raw = self.document.get("scenarios")
        if not isinstance(raw, dict):
            return
        for layer, params in raw.items():
            try:
                self.scenarios[layer] = ConvScenario(**params)
            except (TypeError, ValueError) as exc:
                self.scenario_errors[layer] = str(exc)


@dataclass
class EnvelopeContext:
    """A document that wraps other documents (frontier/service/store)."""

    document: dict
    env: VerifierEnv
    prefix: str = ""


def _run_kind(document: dict, kind: str, env: VerifierEnv, prefix: str) -> List[Finding]:
    """All findings of every check of one kind for one (sub)document."""
    context_type, checks = CHECKS[kind]
    context = context_type(document, env, prefix)
    findings: List[Finding] = []
    for check in checks:
        try:
            findings.extend(check(context))
        except Exception as exc:  # noqa: BLE001 - a crashed check is a finding
            findings.append(
                Finding(
                    "RV190",
                    "error",
                    prefix + kind,
                    f"check {check.__name__!r} crashed: {type(exc).__name__}: {exc}",
                )
            )
    return findings


def _child_plan(
    parent: EnvelopeContext, subdocument: object, location: str
) -> List[Finding]:
    """Recursively verify an embedded plan document."""
    if not isinstance(subdocument, dict):
        return [Finding("RV100", "error", location, "embedded plan is not an object")]
    if subdocument.get("format") != PLAN_FORMAT:
        fmt = subdocument.get("format")
        return [
            Finding(
                "RV100",
                "error",
                location + ".format",
                f"expected plan format {PLAN_FORMAT!r}, found {fmt!r}",
            )
        ]
    return _run_kind(subdocument, "plan", parent.env, location + ".")


# ---------------------------------------------------------------------------
# Plan checks
# ---------------------------------------------------------------------------


def check_plan_fields(ctx: PlanContext) -> Iterator[Finding]:
    """Scalar fields: dtype, threads, batch, platform registration."""
    doc = ctx.document
    prefix = ctx.prefix
    if not ctx.dtype_ok:
        yield Finding(
            "RV102",
            "error",
            prefix + "dtype",
            f"unknown dtype {ctx.dtype!r}; registered precisions: {', '.join(DTYPES)}",
        )
    for name in ("threads", "batch"):
        value = doc.get(name, 1)
        if not _is_count(value):
            yield Finding(
                "RV103",
                "error",
                prefix + name,
                f"{name} must be a positive integer, got {value!r}",
            )
    for name in ("layers", "edges"):
        if not isinstance(doc.get(name), list):
            yield Finding(
                "RV103", "error", prefix + name, f"{name} must be a list"
            )
    platform = doc.get("platform")
    if platform is not None and platform not in PLATFORMS:
        yield Finding(
            "RV101",
            "error",
            prefix + "platform",
            f"platform {platform!r} is not registered; registered platforms: "
            f"{', '.join(sorted(PLATFORMS))}",
        )
    if ctx.network is None:
        yield Finding(
            "RV104",
            "warning",
            prefix + "network",
            f"network {doc.get('network')!r} is not in the model zoo and no "
            f"network was supplied; structural and scenario checks skipped",
        )


def check_plan_structure(ctx: PlanContext) -> Iterator[Finding]:
    """Decision/edge sets must match the network graph exactly."""
    if ctx.network is None:
        return
    prefix = ctx.prefix
    graph_layers = {layer.name for layer in ctx.network.topological_order()}
    doc_layers = set(ctx.decisions())
    for name in sorted(graph_layers - doc_layers):
        yield Finding(
            "RV113",
            "error",
            f"{prefix}layers[{name}]",
            f"network layer {name!r} has no decision in the plan",
        )
    for name in sorted(doc_layers - graph_layers):
        yield Finding(
            "RV113",
            "error",
            f"{prefix}layers[{name}]",
            f"plan decides layer {name!r} which the network does not contain",
        )
    graph_edges = {(edge.producer, edge.consumer) for edge in ctx.network.edges()}
    doc_edges = {
        (entry.get("producer"), entry.get("consumer")) for entry in ctx.edges
    }
    for producer, consumer in sorted(graph_edges - doc_edges):
        yield Finding(
            "RV113",
            "error",
            f"{prefix}edges[{producer}->{consumer}]",
            f"network edge {producer!r} -> {consumer!r} has no decision in the plan",
        )
    for producer, consumer in sorted(doc_edges - graph_edges):
        yield Finding(
            "RV113",
            "error",
            f"{prefix}edges[{producer}->{consumer}]",
            f"plan decides edge {producer!r} -> {consumer!r} which the network "
            f"does not contain",
        )


def check_plan_primitives(ctx: PlanContext) -> Iterator[Finding]:
    """Every primitive exists, supports its scenario, and owns its layouts."""
    library = ctx.env.library
    for name, entry in ctx.decisions().items():
        location = f"{ctx.prefix}layers[{name}]"
        for key in ("input_layout", "output_layout"):
            layout_name = entry.get(key)
            if layout_name not in STANDARD_LAYOUTS:
                yield Finding(
                    "RV121",
                    "error",
                    location,
                    f"unknown layout {layout_name!r} in {key}; known layouts: "
                    f"{', '.join(sorted(STANDARD_LAYOUTS))}",
                )
        primitive_name = entry.get("primitive")
        if primitive_name is None:
            if ctx.scenarios is not None and name in ctx.scenarios:
                yield Finding(
                    "RV110",
                    "error",
                    location,
                    f"convolution layer {name!r} carries no primitive",
                )
            elif entry.get("input_layout") != entry.get("output_layout"):
                yield Finding(
                    "RV112",
                    "error",
                    location,
                    f"non-convolution layer {name!r} must adopt one layout, got "
                    f"{entry.get('input_layout')!r} -> {entry.get('output_layout')!r}",
                )
            continue
        if primitive_name not in library:
            yield Finding(
                "RV110",
                "error",
                location,
                f"unknown primitive {primitive_name!r} (not in the primitive library)",
            )
            continue
        primitive = library.get(primitive_name)
        if (
            entry.get("input_layout") != primitive.input_layout.name
            or entry.get("output_layout") != primitive.output_layout.name
        ):
            yield Finding(
                "RV112",
                "error",
                location,
                f"decision layouts {entry.get('input_layout')}->"
                f"{entry.get('output_layout')} contradict primitive "
                f"{primitive_name!r} ({primitive.input_layout.name}->"
                f"{primitive.output_layout.name})",
            )
        if ctx.scenarios is None:
            continue
        scenario = ctx.scenarios.get(name)
        if scenario is None:
            yield Finding(
                "RV113",
                "error",
                location,
                f"layer {name!r} carries primitive {primitive_name!r} but is not "
                f"a convolution of the network",
            )
        elif not primitive.supports(scenario, platform=ctx.platform):
            yield Finding(
                "RV111",
                "error",
                location,
                f"primitive {primitive_name!r} fails supports() for layer "
                f"{name!r} on platform {ctx.platform_label!r} at dtype "
                f"{ctx.dtype!r} (scenario {scenario.describe()})",
            )


def check_plan_joins(ctx: PlanContext) -> Iterator[Finding]:
    """One-layout-per-join: all inbound edges of a layer agree."""
    inbound: Dict[str, List[dict]] = {}
    for entry in ctx.edges:
        consumer = entry.get("consumer")
        if isinstance(consumer, str):
            inbound.setdefault(consumer, []).append(entry)
    for consumer in sorted(inbound):
        entries = inbound[consumer]
        if len(entries) < 2:
            continue
        targets = sorted({str(entry.get("target_layout")) for entry in entries})
        if len(targets) > 1:
            yield Finding(
                "RV120",
                "error",
                f"{ctx.prefix}edges[*->{consumer}]",
                f"join {consumer!r} consumes {len(targets)} different layouts "
                f"({', '.join(targets)}); a multi-input layer operates in "
                f"exactly one layout",
            )


def check_plan_chains(ctx: PlanContext) -> Iterator[Finding]:
    """Conversion chains walk real DT-graph edges with consistent endpoints."""
    dt_graph = ctx.env.dt_graph
    decisions = ctx.decisions()
    for entry in ctx.edges:
        producer = entry.get("producer")
        consumer = entry.get("consumer")
        location = f"{ctx.prefix}edges[{producer}->{consumer}]"
        source = entry.get("source_layout")
        target = entry.get("target_layout")
        names_ok = True
        for key, layout_name in (("source_layout", source), ("target_layout", target)):
            if layout_name not in STANDARD_LAYOUTS:
                names_ok = False
                yield Finding(
                    "RV121",
                    "error",
                    location,
                    f"unknown layout {layout_name!r} in {key}; known layouts: "
                    f"{', '.join(sorted(STANDARD_LAYOUTS))}",
                )
        hops = entry.get("hops")
        if hops:
            unknown = [name for name in hops if name not in STANDARD_LAYOUTS]
            for name in unknown:
                yield Finding(
                    "RV121",
                    "error",
                    location,
                    f"conversion hop through unknown layout {name!r}",
                )
            if not unknown:
                for src, dst in zip(hops, hops[1:]):
                    if dt_graph.direct_transform(get_layout(src), get_layout(dst)) is None:
                        yield Finding(
                            "RV121",
                            "error",
                            location,
                            f"hop {src}->{dst} is not a direct transform of the "
                            f"DT graph",
                        )
                if names_ok and (hops[0] != source or hops[-1] != target):
                    yield Finding(
                        "RV122",
                        "error",
                        location,
                        f"chain endpoints {hops[0]}->{hops[-1]} contradict the "
                        f"edge's layouts {source}->{target}",
                    )
        elif names_ok and source != target:
            yield Finding(
                "RV122",
                "error",
                location,
                f"edge claims no conversion between different layouts "
                f"{source}->{target}",
            )
        producer_decision = decisions.get(producer)
        if producer_decision is not None and names_ok:
            expected = producer_decision.get("output_layout")
            if source != expected:
                yield Finding(
                    "RV122",
                    "error",
                    location,
                    f"edge source layout {source!r} contradicts producer "
                    f"{producer!r}'s output layout {expected!r}",
                )
        consumer_decision = decisions.get(consumer)
        if consumer_decision is not None and names_ok:
            expected = consumer_decision.get("input_layout")
            if target != expected:
                yield Finding(
                    "RV122",
                    "error",
                    location,
                    f"edge target layout {target!r} contradicts consumer "
                    f"{consumer!r}'s input layout {expected!r}",
                )


def _deduped_edge_total(edges: List[dict], key: str) -> float:
    """Accumulate a per-edge quantity with the executor's conversion dedup.

    Edges carrying a conversion chain are grouped by (producer, target
    layout) — the key ``NetworkExecutor.run_traced`` caches converted
    tensors under — and each group contributes the chain's cost *once* (its
    largest entry: plans attribute the full cost to one edge of the group
    and zero to the rest, so the maximum is the chain cost however the
    document distributes it).  Chainless edges contribute their own value.
    A document that prices a shared chain on every edge therefore recomputes
    *lower* than its serialized totals and fails RV130/RV131.
    """
    total = 0.0
    group_max: Dict[Tuple[str, str], float] = {}
    for entry in edges:
        value = float(entry.get(key, 0.0))
        producer = entry.get("producer")
        target = entry.get("target_layout")
        if entry.get("hops") and isinstance(producer, str) and isinstance(target, str):
            group = (producer, target)
            group_max[group] = max(group_max.get(group, value), value)
        else:
            total += value
    return total + sum(group_max.values())


def check_plan_costs(ctx: PlanContext) -> Iterator[Finding]:
    """The serialized cost vector equals what the decisions add up to."""
    doc = ctx.document
    prefix = ctx.prefix
    layers = ctx.layers
    edges = ctx.edges
    # Recompute with the executor's accounting: per-layer costs add up, and
    # conversion chains count once per (producer, target layout) — the
    # shared-chain formula finalize_plan attributes by.  A canonical plan
    # carries each chain's cost on exactly one edge of its dedup group, so
    # the plain sum and the grouped sum coincide up to rounding noise.
    time_ms = 1e3 * (
        sum(float(entry.get("cost", 0.0)) for entry in layers)
        + _deduped_edge_total(edges, "cost")
    )
    workspace = max(
        (float(entry.get("workspace_bytes", 0.0)) for entry in layers), default=0.0
    )
    energy = sum(
        float(entry.get("energy_j", 0.0)) for entry in layers
    ) + _deduped_edge_total(edges, "energy_j")
    accuracy = sum(float(entry.get("accuracy_loss", 0.0)) for entry in layers)
    recomputed = {
        "time_ms": time_ms,
        "peak_workspace_bytes": workspace,
        "energy_proxy_j": energy,
        "accuracy_proxy": accuracy,
    }
    vector = doc.get("cost_vector")
    if not isinstance(vector, dict):
        yield Finding(
            "RV130", "error", prefix + "cost_vector", "cost_vector missing or not an object"
        )
    else:
        for objective in OBJECTIVES:
            serialized = vector.get(objective)
            if not isinstance(serialized, (int, float)) or isinstance(serialized, bool):
                yield Finding(
                    "RV130",
                    "error",
                    f"{prefix}cost_vector.{objective}",
                    f"{objective} missing or not numeric: {serialized!r}",
                )
            elif not _close(float(serialized), recomputed[objective]):
                yield Finding(
                    "RV130",
                    "error",
                    f"{prefix}cost_vector.{objective}",
                    f"serialized {objective} {serialized!r} != {recomputed[objective]!r} "
                    f"recomputed from the document's decisions",
                )
    total_ms = doc.get("total_ms")
    if not isinstance(total_ms, (int, float)) or isinstance(total_ms, bool):
        yield Finding(
            "RV131", "error", prefix + "total_ms", f"total_ms missing or not numeric: {total_ms!r}"
        )
    elif not _close(float(total_ms), time_ms):
        yield Finding(
            "RV131",
            "error",
            prefix + "total_ms",
            f"serialized total_ms {total_ms!r} != {time_ms!r} recomputed from the "
            f"document's decisions",
        )


def check_plan_fanout(ctx: PlanContext) -> Iterator[Finding]:
    """Fan-out double pricing: shared conversion chains priced per edge."""
    # The executor dedups conversions by (producer, target layout) — see
    # NetworkExecutor.run_traced — and since the fan-out-aware encoding both
    # the PBQP objective and finalize_plan attribute each shared chain to
    # exactly one edge, so every canonical plan reports a delta of 0.0 here.
    # The check stays as the regression tripwire that keeps double pricing
    # from silently returning (CI runs `repro check --strict`, which
    # promotes this warning to a failure on freshly planned documents).
    groups: Dict[Tuple[str, str], List[dict]] = {}
    for entry in ctx.edges:
        if not entry.get("hops"):
            continue
        producer = entry.get("producer")
        target = entry.get("target_layout")
        if isinstance(producer, str) and isinstance(target, str):
            groups.setdefault((producer, target), []).append(entry)
    total_ms = ctx.document.get("total_ms")
    for producer, target in sorted(groups):
        entries = groups[(producer, target)]
        if len(entries) < 2:
            continue
        costs = [float(entry.get("cost", 0.0)) for entry in entries]
        delta_ms = 1e3 * (sum(costs) - max(costs))
        if delta_ms <= 0.0:
            continue
        consumers = ", ".join(sorted(str(entry.get("consumer")) for entry in entries))
        share = (
            f" ({100.0 * delta_ms / float(total_ms):.2f}% of total_ms)"
            if isinstance(total_ms, (int, float)) and total_ms
            else ""
        )
        yield Finding(
            "RV140",
            "warning",
            f"{ctx.prefix}edges[{producer}->*]",
            f"conversion {entries[0].get('source_layout')}->{target} out of "
            f"{producer!r} is priced on {len(entries)} edges (to {consumers}) "
            f"but executed once: double-priced by {delta_ms:.6f} ms{share}",
        )


# ---------------------------------------------------------------------------
# Cost-table checks
# ---------------------------------------------------------------------------


def check_tables_fields(ctx: TablesContext) -> Iterator[Finding]:
    """Table scalars and per-layer scenarios are mutually consistent."""
    doc = ctx.document
    prefix = ctx.prefix
    dtype = doc.get("dtype", "fp32")
    if dtype not in DTYPES:
        yield Finding(
            "RV102",
            "error",
            prefix + "dtype",
            f"unknown dtype {dtype!r}; registered precisions: {', '.join(DTYPES)}",
        )
    for name in ("threads", "batch"):
        value = doc.get(name, 1)
        if not _is_count(value):
            yield Finding(
                "RV103",
                "error",
                prefix + name,
                f"{name} must be a positive integer, got {value!r}",
            )
    for layer in sorted(ctx.scenario_errors):
        yield Finding(
            "RV151",
            "error",
            f"{prefix}scenarios[{layer}]",
            f"invalid scenario: {ctx.scenario_errors[layer]}",
        )
    batch = doc.get("batch", 1)
    for layer in sorted(ctx.scenarios):
        scenario = ctx.scenarios[layer]
        location = f"{prefix}scenarios[{layer}]"
        if dtype in DTYPES and scenario.dtype != dtype:
            yield Finding(
                "RV151",
                "error",
                location,
                f"scenario dtype {scenario.dtype!r} contradicts the table's "
                f"dtype {dtype!r}",
            )
        if _is_count(batch) and scenario.batch != batch:
            yield Finding(
                "RV151",
                "error",
                location,
                f"scenario batch {scenario.batch} contradicts the table's "
                f"batch {batch}",
            )


def check_tables_primitives(ctx: TablesContext) -> Iterator[Finding]:
    """Every priced primitive exists and supports its scenario."""
    library = ctx.env.library
    node_costs = ctx.document.get("node_costs")
    if not isinstance(node_costs, dict):
        yield Finding(
            "RV103", "error", ctx.prefix + "node_costs", "node_costs must be an object"
        )
        return
    for layer in sorted(node_costs):
        location = f"{ctx.prefix}node_costs[{layer}]"
        scenario = ctx.scenarios.get(layer)
        if scenario is None and layer not in ctx.scenario_errors:
            yield Finding(
                "RV113",
                "error",
                location,
                f"costs priced for layer {layer!r} which has no scenario",
            )
        for primitive_name in sorted(node_costs[layer]):
            if primitive_name not in library:
                yield Finding(
                    "RV110",
                    "error",
                    location,
                    f"unknown primitive {primitive_name!r} (not in the primitive "
                    f"library)",
                )
            elif scenario is not None and not library.get(primitive_name).supports(
                scenario, platform=None
            ):
                yield Finding(
                    "RV111",
                    "error",
                    location,
                    f"primitive {primitive_name!r} is priced but fails supports() "
                    f"for layer {layer!r} at dtype {scenario.dtype!r}",
                )


def check_tables_chains(ctx: TablesContext) -> Iterator[Finding]:
    """Serialized conversion chains walk real DT-graph edges."""
    dt_graph = ctx.env.dt_graph
    dt_hops = ctx.document.get("dt_hops")
    if not isinstance(dt_hops, dict):
        yield Finding(
            "RV103", "error", ctx.prefix + "dt_hops", "dt_hops must be an object"
        )
        return
    for shape_key in sorted(dt_hops):
        pairs = dt_hops[shape_key]
        for pair_key in sorted(pairs):
            hops = pairs[pair_key]
            if hops is None or hops == []:
                continue
            location = f"{ctx.prefix}dt_hops[{shape_key}][{pair_key}]"
            unknown = [name for name in hops if name not in STANDARD_LAYOUTS]
            for name in unknown:
                yield Finding(
                    "RV121",
                    "error",
                    location,
                    f"conversion hop through unknown layout {name!r}",
                )
            if unknown:
                continue
            for src, dst in zip(hops, hops[1:]):
                if dt_graph.direct_transform(get_layout(src), get_layout(dst)) is None:
                    yield Finding(
                        "RV121",
                        "error",
                        location,
                        f"hop {src}->{dst} is not a direct transform of the DT graph",
                    )
            source, _, target = pair_key.partition("->")
            if hops[0] != source or hops[-1] != target:
                yield Finding(
                    "RV122",
                    "error",
                    location,
                    f"chain endpoints {hops[0]}->{hops[-1]} contradict the pair "
                    f"key {pair_key!r}",
                )


# ---------------------------------------------------------------------------
# Envelope checks (frontier / store entry / service plan)
# ---------------------------------------------------------------------------


def check_frontier_envelope(ctx: EnvelopeContext) -> Iterator[Finding]:
    """Frontier points carry consistent vectors (and legal plans)."""
    doc = ctx.document
    prefix = ctx.prefix
    points = doc.get("points")
    if not isinstance(points, list):
        yield Finding("RV103", "error", prefix + "points", "points must be a list")
        return
    for index, point in enumerate(points):
        location = f"{prefix}points[{index}]"
        if not isinstance(point, dict):
            yield Finding("RV103", "error", location, "point must be an object")
            continue
        vector = point.get("vector")
        if not isinstance(vector, dict) or not all(
            isinstance(vector.get(objective), (int, float))
            and not isinstance(vector.get(objective), bool)
            for objective in OBJECTIVES
        ):
            yield Finding(
                "RV130",
                "error",
                location + ".vector",
                f"vector must carry numeric {', '.join(OBJECTIVES)}",
            )
            vector = None
        plan_doc = point.get("plan")
        if plan_doc is None:
            continue
        yield from _child_plan(ctx, plan_doc, location + ".plan")
        if isinstance(plan_doc, dict) and vector is not None:
            serialized = plan_doc.get("cost_vector")
            if isinstance(serialized, dict):
                for objective in OBJECTIVES:
                    inner = serialized.get(objective)
                    if isinstance(inner, (int, float)) and not _close(
                        float(vector[objective]), float(inner)
                    ):
                        yield Finding(
                            "RV153",
                            "error",
                            f"{location}.vector.{objective}",
                            f"point vector {objective} {vector[objective]!r} "
                            f"contradicts the embedded plan's {inner!r}",
                        )


def check_store_entry(ctx: EnvelopeContext) -> Iterator[Finding]:
    """Store key agrees with the embedded tables; version freshness."""
    doc = ctx.document
    prefix = ctx.prefix
    key = doc.get("key")
    tables = doc.get("tables")
    if not isinstance(key, dict):
        yield Finding("RV103", "error", prefix + "key", "key must be an object")
        key = {}
    if not isinstance(tables, dict):
        yield Finding("RV103", "error", prefix + "tables", "tables must be an object")
        return
    if tables.get("format") != COST_TABLE_FORMAT:
        yield Finding(
            "RV100",
            "error",
            prefix + "tables.format",
            f"expected cost-table format {COST_TABLE_FORMAT!r}, "
            f"found {tables.get('format')!r}",
        )
        return
    for field_name, table_field in (
        ("threads", "threads"),
        ("batch", "batch"),
        ("dtype", "dtype"),
    ):
        if field_name in key and key[field_name] != tables.get(table_field):
            yield Finding(
                "RV150",
                "error",
                f"{prefix}key.{field_name}",
                f"key {field_name} {key[field_name]!r} contradicts the embedded "
                f"tables' {tables.get(table_field)!r}",
            )
    fingerprint = key.get("fingerprint")
    if fingerprint in MODEL_BUILDERS and fingerprint != tables.get("network"):
        yield Finding(
            "RV150",
            "error",
            prefix + "key.fingerprint",
            f"key fingerprint {fingerprint!r} contradicts the embedded tables' "
            f"network {tables.get('network')!r}",
        )
    platform_name = key.get("platform")
    # Unregistered platforms are only a warning here: the store deliberately
    # keeps such entries (the owning registration may not be loaded), see
    # CostStore.evict.  A platform-less key is named after its model.
    if platform_name and platform_name not in PLATFORMS:
        if platform_name != key.get("provider"):
            yield Finding(
                "RV101",
                "warning",
                prefix + "key.platform",
                f"platform {platform_name!r} is not registered; registered "
                f"platforms: {', '.join(sorted(PLATFORMS))}",
            )
    elif platform_name in PLATFORMS and key.get("platform_version"):
        current = platform_version(PLATFORMS[platform_name])
        if key["platform_version"] != current:
            yield Finding(
                "RV152",
                "warning",
                prefix + "key.platform_version",
                f"entry was priced at platform version {key['platform_version']!r} "
                f"but {platform_name!r} is now {current!r} (the store treats "
                f"this entry as evictable)",
            )
    yield from _run_kind(tables, "tables", ctx.env, prefix + "tables.")


def check_service_plan_envelope(ctx: EnvelopeContext) -> Iterator[Finding]:
    """Service plan document agrees with its embedded plan."""
    doc = ctx.document
    prefix = ctx.prefix
    plan_doc = doc.get("plan")
    yield from _child_plan(ctx, plan_doc, prefix + "plan")
    if not isinstance(plan_doc, dict):
        return
    for field_name, plan_field in (
        ("model", "network"),
        ("platform", "platform"),
        ("strategy", "strategy"),
        ("threads", "threads"),
        ("batch", "batch"),
        ("dtype", "dtype"),
    ):
        if field_name in doc and doc[field_name] != plan_doc.get(plan_field):
            yield Finding(
                "RV153",
                "error",
                prefix + field_name,
                f"envelope {field_name} {doc[field_name]!r} contradicts the "
                f"embedded plan's {plan_doc.get(plan_field)!r}",
            )
    total_ms = doc.get("total_ms")
    plan_total = plan_doc.get("total_ms")
    if (
        isinstance(total_ms, (int, float))
        and isinstance(plan_total, (int, float))
        and not _close(float(total_ms), float(plan_total))
    ):
        yield Finding(
            "RV153",
            "error",
            prefix + "total_ms",
            f"envelope total_ms {total_ms!r} contradicts the embedded plan's "
            f"{plan_total!r}",
        )


#: Document kind -> (context type, its checks in run order).
CHECKS: Dict[str, Tuple[Callable[..., object], Tuple[Callable[..., Iterator[Finding]], ...]]] = {
    "plan": (
        PlanContext,
        (
            check_plan_fields,
            check_plan_structure,
            check_plan_primitives,
            check_plan_joins,
            check_plan_chains,
            check_plan_costs,
            check_plan_fanout,
        ),
    ),
    "tables": (
        TablesContext,
        (check_tables_fields, check_tables_primitives, check_tables_chains),
    ),
    "frontier": (EnvelopeContext, (check_frontier_envelope,)),
    "store-entry": (EnvelopeContext, (check_store_entry,)),
    "service-plan": (EnvelopeContext, (check_service_plan_envelope,)),
}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def verify_document(
    document: object,
    *,
    source: str = "<document>",
    network: Optional[Network] = None,
    library: Optional[PrimitiveLibrary] = None,
    dt_graph: Optional[DTGraph] = None,
) -> Report:
    """Run every check of its kind over one raw JSON document.

    The document kind is detected from its ``format`` token; unknown formats
    produce a single ``RV100`` error.  Pass an explicit ``network`` to check
    plans for graphs outside the model zoo (zoo networks are rebuilt by
    name).  ``library``/``dt_graph`` default to the standard primitive
    library and its DT graph.
    """
    report = Report(subject=source)
    if not isinstance(document, dict):
        report.findings.append(
            Finding(
                "RV100",
                "error",
                "",
                f"document must be a JSON object, got {type(document).__name__}",
            )
        )
        return report
    kind = detect_kind(document)
    if kind is None:
        report.findings.append(
            Finding(
                "RV100",
                "error",
                "format",
                f"unknown document format {document.get('format')!r}; known "
                f"formats: {', '.join(sorted(KNOWN_FORMATS))}",
            )
        )
        return report
    if library is None:
        env = _default_env()
        env.network_override = network
    else:
        env = VerifierEnv(
            library=library,
            dt_graph=dt_graph
            if dt_graph is not None
            else DTGraph(library.layouts_used(), default_transform_library()),
            network_override=network,
        )
    report.extend(_run_kind(document, kind, env, ""))
    return report


def verify_file(
    path: Union[str, Path],
    *,
    network: Optional[Network] = None,
    library: Optional[PrimitiveLibrary] = None,
    dt_graph: Optional[DTGraph] = None,
) -> Report:
    """Load a JSON file and verify it; unreadable files raise ``OSError``/
    ``json.JSONDecodeError`` (the CLI maps those to exit code 2)."""
    document = json.loads(Path(path).read_text())
    return verify_document(
        document, source=str(path), network=network, library=library, dt_graph=dt_graph
    )


def verify_plan(
    plan: NetworkPlan,
    *,
    network: Optional[Network] = None,
    library: Optional[PrimitiveLibrary] = None,
    dt_graph: Optional[DTGraph] = None,
    source: str = "<plan>",
) -> Report:
    """Verify an in-memory plan by serializing it through ``plan_to_dict``.

    This is the hook :meth:`repro.api.Session.plan` runs (opt out with
    ``verify=False``): the document the verifier sees is byte-identical to
    what ``save_plan`` would write.
    """
    return verify_document(
        plan_to_dict(plan),
        source=source,
        network=network,
        library=library,
        dt_graph=dt_graph,
    )


def raise_for_report(report: Report) -> Report:
    """Raise :class:`PlanVerificationError` when a report carries errors."""
    if not report.ok:
        raise PlanVerificationError(report)
    return report
