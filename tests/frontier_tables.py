"""Dict-table references for the frontier's batched cost variants.

``repro.multiobj.frontier`` builds each workspace cap and each weight triple
as one slice of a batched encoding.  These build the same variants the
per-generator way -- a context's tables with primitives pruned or costs
rescaled -- so tests can compare the slices, and the plans they select,
against them.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

import numpy as np

from repro.multiobj.frontier import _normalizer


def workspace_gated_tables(context, cap_bytes: float):
    """Tables with every primitive above the per-layer workspace cap pruned.

    Returns ``None`` when some layer would lose all of its primitives — the
    cap is below that layer's lowest-workspace alternative, so the PBQP
    instance is infeasible.
    """
    tables = context.tables
    gated: Dict[str, Dict[str, float]] = {}
    for layer, costs in tables.node_costs.items():
        keep = {
            name: cost
            for name, cost in costs.items()
            if tables.primitive_workspace(layer, name) <= cap_bytes
        }
        if not keep:
            return None
        gated[layer] = keep
    return dataclasses.replace(tables, node_costs=gated)


def scalarization_scales(tables) -> Tuple[float, float, float]:
    """The (time, workspace, energy) normalizers of the scalarization solves."""
    times: List[float] = []
    workspaces: List[float] = []
    energies: List[float] = []
    for layer, costs in tables.node_costs.items():
        workspace = tables.node_workspace.get(layer, {})
        energy = tables.node_energy.get(layer, {})
        for name, cost in costs.items():
            times.append(cost)
            workspaces.append(workspace.get(name, 0.0))
            energies.append(energy.get(name, 0.0))
    return tuple(_normalizer(np.array(values)) for values in (times, workspaces, energies))


def scalarized_tables(
    context,
    weights: Tuple[float, float, float],
    scales: Tuple[float, float, float],
):
    """Tables whose node and edge costs are normalized weighted sums.

    ``scales`` are the context's :func:`scalarization_scales`.
    """
    tables = context.tables
    w_time, w_mem, w_energy = weights
    time_scale, mem_scale, energy_scale = scales

    def scal(weight: float, value: float, scale: float) -> float:
        # 0 * inf is NaN; an objective with zero weight contributes nothing.
        return 0.0 if weight == 0.0 else weight * value / scale

    node_costs = {}
    for layer, costs in tables.node_costs.items():
        workspace = tables.node_workspace.get(layer, {})
        energy = tables.node_energy.get(layer, {})
        node_costs[layer] = {
            name: (
                scal(w_time, cost, time_scale)
                + scal(w_mem, workspace.get(name, 0.0), mem_scale)
                + scal(w_energy, energy.get(name, 0.0), energy_scale)
            )
            for name, cost in costs.items()
        }
    dt_costs = {}
    for shape, pairs in tables.dt_costs.items():
        scaled = {}
        energies = tables.dt_energy.get(shape, {})
        for pair, cost in pairs.items():
            if cost == float("inf"):
                # No conversion chain: illegal under every weighting.
                scaled[pair] = float("inf")
            else:
                scaled[pair] = scal(w_time, cost, time_scale) + scal(
                    w_energy, energies.get(pair, 0.0), energy_scale
                )
        dt_costs[shape] = scaled
    return dataclasses.replace(tables, node_costs=node_costs, dt_costs=dt_costs)
