"""Serialization of cost tables and plans.

Section 4 of the paper: "the resulting cost tables are tiny compared to the
weight data required for most DNN models, making it feasible to produce these
cost tables before deployment, and ship them with the trained model to
maximise inference performance in situ."

This module implements that deployment artifact: cost tables and selection
plans can be saved to (and loaded from) a plain JSON document, so profiling
can happen on one machine and selection/execution on another.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro import jsondoc
from repro.core.plan import EdgeDecision, LayerDecision, NetworkPlan
from repro.cost.platform import PLATFORMS
from repro.cost.tables import CostTables
from repro.graph.scenario import ConvScenario
from repro.layouts.dt_graph import DTGraph, DTPath
from repro.layouts.layout import get_layout
from repro.layouts.transforms import TransformChain

PathLike = Union[str, Path]

#: Format identifier embedded in every serialized document.  Cost tables are
#: at v3: the precision axis added the table-level ``dtype``, per-scenario
#: dtypes and the per-primitive accuracy-loss table (v2 added the
#: multi-objective workspace/energy tables).  Older documents are rejected
#: here (and treated as cache misses by
#: :class:`~repro.cost.store.CostStore`) rather than half-loaded: tables
#: without accuracy data would silently price every precision as free.
#: Plans are at v2: the fan-out-aware pricing fix attributes a shared
#: conversion chain's cost to exactly one edge of its (producer, target
#: layout) group (see :func:`~repro.core.plan.conversion_groups`), so v1
#: documents, which price the chain on *every* edge, carry totals the
#: executor never pays.  They are refused like any other unknown format and
#: must be re-planned.  A plan's ``platform`` is a registered platform's
#: name; platform-less plans (the host profiler's, or any cost model's
#: without a ``platform``) record ``platform: null``, and the store names
#: their shard after the model.
COST_TABLE_FORMAT = "repro/cost-tables/v3"
PLAN_FORMAT = "repro/plan/v2"


def _shape_key(shape: Tuple[int, int, int]) -> str:
    return "x".join(str(dim) for dim in shape)


def _parse_shape(key: str) -> Tuple[int, int, int]:
    c, h, w = (int(part) for part in key.split("x"))
    return (c, h, w)


def _chain_to_hops(chain: Optional[TransformChain]) -> Optional[List[str]]:
    """A conversion chain as the layout names it walks.

    ``None`` is no chain (an unreachable pair) and ``[]`` the empty chain.
    """
    if chain is None:
        return None
    if not len(chain):
        return []
    return [chain.source.name] + [hop.target.name for hop in chain.transforms]


def _chain_from_hops(
    hops: Optional[List[str]],
    dt_graph: DTGraph,
    chains: Dict[Tuple[str, ...], TransformChain],
) -> Optional[TransformChain]:
    """Resolve a hop list against ``dt_graph``; the inverse of :func:`_chain_to_hops`.

    ``chains`` memoizes resolved hop lists for one document: most tensor
    shapes and edges share their chains, so each is resolved once.
    """
    if hops is None:
        return None
    chain = chains.get(tuple(hops))
    if chain is None:
        transforms = []
        for source_name, target_name in zip(hops, hops[1:]):
            transform = dt_graph.direct_transform(
                get_layout(source_name), get_layout(target_name)
            )
            if transform is None:
                raise ValueError(
                    f"serialized chain uses unknown direct transform "
                    f"{source_name}->{target_name}"
                )
            transforms.append(transform)
        chain = chains[tuple(hops)] = TransformChain(transforms=tuple(transforms))
    return chain


# ---------------------------------------------------------------------------
# Cost tables
# ---------------------------------------------------------------------------


def cost_tables_to_dict(tables: CostTables) -> dict:
    """Convert cost tables into a JSON-serializable dictionary.

    Conversion chains are stored as layout-name hop lists; they are
    reconstructed against a DT graph on load.
    """
    scenarios = {
        layer: {
            "c": s.c,
            "h": s.h,
            "w": s.w,
            "stride": s.stride,
            "k": s.k,
            "m": s.m,
            "padding": s.padding,
            "groups": s.groups,
            "batch": s.batch,
            "dtype": s.dtype,
        }
        for layer, s in tables.scenarios.items()
    }
    dt_costs = {
        _shape_key(shape): {f"{src}->{dst}": cost for (src, dst), cost in pairs.items()}
        for shape, pairs in tables.dt_costs.items()
    }
    dt_hops = {
        _shape_key(shape): {
            f"{src}->{dst}": _chain_to_hops(path.chain) for (src, dst), path in pairs.items()
        }
        for shape, pairs in tables.dt_paths.items()
    }
    dt_energy = {
        _shape_key(shape): {
            f"{src}->{dst}": energy for (src, dst), energy in pairs.items()
        }
        for shape, pairs in tables.dt_energy.items()
    }
    return {
        "format": COST_TABLE_FORMAT,
        "network": tables.network_name,
        "threads": tables.threads,
        "batch": tables.batch,
        "dtype": tables.dtype,
        "scenarios": scenarios,
        "shapes": {layer: list(shape) for layer, shape in tables.shapes.items()},
        "node_costs": tables.node_costs,
        "node_workspace": tables.node_workspace,
        "node_energy": tables.node_energy,
        "node_accuracy": tables.node_accuracy,
        "dt_costs": dt_costs,
        "dt_energy": dt_energy,
        "dt_hops": dt_hops,
    }


def cost_tables_from_dict(document: dict, dt_graph: DTGraph) -> CostTables:
    """Rebuild cost tables from a dictionary produced by :func:`cost_tables_to_dict`."""
    if document.get("format") != COST_TABLE_FORMAT:
        raise ValueError(
            f"unexpected cost-table format {document.get('format')!r} "
            f"(expected {COST_TABLE_FORMAT!r}; older documents must be re-profiled)"
        )

    scenarios = {
        layer: ConvScenario(**params) for layer, params in document["scenarios"].items()
    }
    shapes = {layer: tuple(shape) for layer, shape in document["shapes"].items()}

    dt_costs: Dict[Tuple[int, int, int], Dict[Tuple[str, str], float]] = {}
    dt_paths: Dict[Tuple[int, int, int], Dict[Tuple[str, str], DTPath]] = {}
    dt_energy: Dict[Tuple[int, int, int], Dict[Tuple[str, str], float]] = {}
    chains: Dict[Tuple[str, ...], TransformChain] = {}
    for shape_key, pairs in document.get("dt_energy", {}).items():
        dt_energy[_parse_shape(shape_key)] = {
            tuple(pair_key.split("->")): float(energy)
            for pair_key, energy in pairs.items()
        }
    for shape_key, pairs in document["dt_costs"].items():
        shape = _parse_shape(shape_key)
        costs: Dict[Tuple[str, str], float] = {}
        paths: Dict[Tuple[str, str], DTPath] = {}
        hops_for_shape = document["dt_hops"][shape_key]
        for pair_key, cost in pairs.items():
            src, dst = pair_key.split("->")
            costs[(src, dst)] = float(cost)
            chain = _chain_from_hops(hops_for_shape[pair_key], dt_graph, chains)
            paths[(src, dst)] = DTPath(
                source=get_layout(src), target=get_layout(dst), cost=float(cost), chain=chain
            )
        dt_costs[shape] = costs
        dt_paths[shape] = paths

    node_costs = {
        layer: {name: float(cost) for name, cost in costs.items()}
        for layer, costs in document["node_costs"].items()
    }
    node_workspace = {
        layer: {name: float(value) for name, value in values.items()}
        for layer, values in document.get("node_workspace", {}).items()
    }
    node_energy = {
        layer: {name: float(value) for name, value in values.items()}
        for layer, values in document.get("node_energy", {}).items()
    }
    node_accuracy = {
        layer: {name: float(value) for name, value in values.items()}
        for layer, values in document.get("node_accuracy", {}).items()
    }
    return CostTables(
        network_name=document["network"],
        threads=int(document["threads"]),
        scenarios=scenarios,
        shapes=shapes,
        node_costs=node_costs,
        dt_paths=dt_paths,
        dt_costs=dt_costs,
        batch=int(document.get("batch", 1)),
        dtype=str(document.get("dtype", "fp32")),
        node_workspace=node_workspace,
        node_energy=node_energy,
        dt_energy=dt_energy,
        node_accuracy=node_accuracy,
    )


def save_cost_tables(tables: CostTables, path: PathLike) -> None:
    """Write cost tables to a JSON file."""
    Path(path).write_text(jsondoc.dumps(cost_tables_to_dict(tables)))


def load_cost_tables(path: PathLike, dt_graph: DTGraph) -> CostTables:
    """Read cost tables from a JSON file."""
    return cost_tables_from_dict(json.loads(Path(path).read_text()), dt_graph)


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


def plan_to_dict(plan: NetworkPlan) -> dict:
    """Convert a network plan into a JSON-serializable dictionary."""
    return {
        "format": PLAN_FORMAT,
        "network": plan.network_name,
        "strategy": plan.strategy,
        "platform": plan.platform_name,
        "threads": plan.threads,
        "batch": plan.batch,
        "dtype": plan.dtype,
        "layers": [
            {
                "layer": d.layer,
                "primitive": d.primitive,
                "input_layout": d.input_layout.name,
                "output_layout": d.output_layout.name,
                "cost": d.cost,
                "note": d.note,
                "workspace_bytes": d.workspace_bytes,
                "energy_j": d.energy_j,
                "accuracy_loss": d.accuracy_loss,
            }
            for d in plan.layer_decisions.values()
        ],
        "edges": [
            {
                "producer": e.producer,
                "consumer": e.consumer,
                "source_layout": e.source_layout.name,
                "target_layout": e.target_layout.name,
                "hops": _chain_to_hops(e.chain),
                "cost": e.cost,
                "energy_j": e.energy_j,
            }
            for e in plan.edge_decisions
        ],
        "total_ms": plan.total_ms,
        "cost_vector": plan.cost_vector().to_dict(),
    }


def plan_from_dict(document: dict, dt_graph: DTGraph) -> NetworkPlan:
    """Rebuild a network plan from a dictionary produced by :func:`plan_to_dict`."""
    if document.get("format") != PLAN_FORMAT:
        raise ValueError(
            f"unexpected plan format {document.get('format')!r} "
            f"(expected {PLAN_FORMAT!r}; older documents must be re-planned)"
        )
    platform_name = document.get("platform")
    if platform_name is not None and platform_name not in PLATFORMS:
        raise ValueError(
            f"plan references platform {platform_name!r} which is not registered; "
            f"registered platforms: {', '.join(sorted(PLATFORMS))}"
        )
    plan = NetworkPlan(
        network_name=document["network"],
        strategy=document["strategy"],
        platform_name=document["platform"],
        threads=int(document["threads"]),
        batch=int(document.get("batch", 1)),
        dtype=str(document.get("dtype", "fp32")),
    )
    for entry in document["layers"]:
        plan.layer_decisions[entry["layer"]] = LayerDecision(
            layer=entry["layer"],
            primitive=entry["primitive"],
            input_layout=get_layout(entry["input_layout"]),
            output_layout=get_layout(entry["output_layout"]),
            cost=float(entry["cost"]),
            note=entry.get("note", ""),
            workspace_bytes=float(entry.get("workspace_bytes", 0.0)),
            energy_j=float(entry.get("energy_j", 0.0)),
            accuracy_loss=float(entry.get("accuracy_loss", 0.0)),
        )
    chains: Dict[Tuple[str, ...], TransformChain] = {}
    for entry in document["edges"]:
        plan.edge_decisions.append(
            EdgeDecision(
                producer=entry["producer"],
                consumer=entry["consumer"],
                source_layout=get_layout(entry["source_layout"]),
                target_layout=get_layout(entry["target_layout"]),
                chain=_chain_from_hops(entry["hops"], dt_graph, chains),
                cost=float(entry["cost"]),
                energy_j=float(entry.get("energy_j", 0.0)),
            )
        )
    return plan


def save_plan(plan: NetworkPlan, path: PathLike) -> None:
    """Write a plan to a JSON file."""
    Path(path).write_text(jsondoc.dumps(plan_to_dict(plan)))


def load_plan(path: PathLike, dt_graph: DTGraph) -> NetworkPlan:
    """Read a plan from a JSON file."""
    return plan_from_dict(json.loads(Path(path).read_text()), dt_graph)
