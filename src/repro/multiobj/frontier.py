"""Pareto frontiers over whole-network plans.

The scalar PBQP selector answers "what is the fastest instantiation of this
network?".  The frontier answers the deployment question behind it: *what are
the best achievable trade-offs between time, peak scratch memory and energy,
and which plan should I ship under my budgets?*

Candidate whole-network plans come from three generators, in priority order:

1. **Seed strategies** — the scalar PBQP plan first (so the frontier's
   min-time point is exactly the paper's plan), then every applicable
   non-framework baseline (per-family greedy, local-optimal, ...).
2. **Epsilon-constraint solves** — peak workspace is a *max* over layers, so
   making every primitive whose workspace exceeds a cap infinitely expensive
   (an ``inf`` mask on the time vector) encodes a peak-workspace budget
   *exactly*; sweeping the cap over the distinct per-primitive workspace
   levels walks the time/memory trade-off.
3. **Weighted scalarization solves** — PBQP over normalized weighted sums of
   the three objectives.  Approximate for the max-type memory objective (a
   sum of per-layer workspaces is not the peak), so these are candidate
   *generators* only: every candidate is re-evaluated with its exact
   :meth:`~repro.core.plan.NetworkPlan.cost_vector` before the nondominated
   sort.

Generators 2 and 3 change only costs, never the PBQP topology, so every cap
and every weight triple is one slice of a single batched encoding
(:class:`~repro.core.selector.CostVariants`), solved in one PBQP pass.  The
slices reproduce per-generator tables exactly: a masked alternative is never
chosen at a finite cost, so a cap selects what pruning the primitive would,
and each weight slice is the normalized weighted sum, elementwise, of the
context's time, workspace and energy costs.  The tests hold dict-table
references for both.

Duplicates (same per-layer decisions, see :func:`_signature`) are removed,
first generator first: a slice whose decoded choices repeat an earlier
candidate is dropped before it is legalized.  The survivors are evaluated
exactly, and :func:`~repro.multiobj.pareto._pareto_front` keeps the
nondominated set.  Decisions over the front (``knee``, ``min_time_under``,
``lexicographic``) use seeded deterministic tie-breaking, and the serialized
frontier is byte-identical across runs for a fixed seed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import AbstractSet, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro import jsondoc
from repro.core.legalize import finalize_plan
from repro.core.plan import NetworkPlan, platform_label
from repro.core.selector import PBQPEncoding, PBQPSelector, SelectionContext
from repro.core.strategies import applicable_strategies
from repro.cost.serialize import plan_from_dict, plan_to_dict
from repro.layouts.dt_graph import DTGraph
from repro.layouts.layout import Layout
from repro.multiobj.pareto import (
    _pareto_front,
    knee_index,
    lexicographic_index,
    min_time_under_index,
)
from repro.multiobj.vector import OBJECTIVES, CostVector

FRONTIER_FORMAT = "repro/frontier/v1"

#: (time, workspace, energy) weight triples of the scalarization generator.
#: Time keeps a non-zero weight except where energy is non-zero: an edge with
#: no reachable conversion must stay infinitely expensive under every triple,
#: and edges carry only time and energy.
SCALARIZATION_WEIGHTS: Tuple[Tuple[float, float, float], ...] = (
    (1.0, 0.0, 0.0),
    (0.7, 0.3, 0.0),
    (0.7, 0.0, 0.3),
    (0.5, 0.25, 0.25),
    (0.34, 0.33, 0.33),
    (0.2, 0.4, 0.4),
    (0.1, 0.0, 0.9),
)

#: Default number of epsilon-constraint workspace caps swept per build.
DEFAULT_BUDGET_STEPS = 8


@dataclass
class FrontierPoint:
    """One nondominated plan with its exact objective vector."""

    plan: NetworkPlan
    vector: CostVector
    #: Which generator produced the plan (``"strategy:pbqp"``,
    #: ``"cap:<bytes>"``, ``"weights:t/m/e"``).
    generator: str

    def to_dict(self) -> dict:
        return {
            "generator": self.generator,
            "vector": self.vector.to_dict(),
            "plan": plan_to_dict(self.plan),
        }

    @classmethod
    def from_dict(cls, document: dict, dt_graph: DTGraph) -> "FrontierPoint":
        return cls(
            plan=plan_from_dict(document["plan"], dt_graph),
            vector=CostVector.from_dict(document["vector"]),
            generator=document["generator"],
        )


@dataclass
class Frontier:
    """The Pareto front of whole-network plans for one selection context."""

    network_name: str
    platform_name: Optional[str]
    threads: int
    batch: int
    seed: int
    #: Nondominated points, sorted by ascending time (stable, so among
    #: equal-time points the higher-priority generator comes first).
    points: List[FrontierPoint] = field(default_factory=list)
    #: ``{objective}_max`` bounds the frontier was built under (advisory:
    #: candidates violating them are still kept on the front so the budget
    #: sweep can show what the budget costs; decisions apply them strictly).
    constraints: Dict[str, float] = field(default_factory=dict)
    #: How many distinct candidate plans were evaluated.
    candidates_evaluated: int = 0
    #: How many evaluated candidates were dominated (or duplicates).
    dominated_count: int = 0
    #: Wall-clock seconds spent building the frontier (all PBQP solves).
    solve_seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    # -- decisions --------------------------------------------------------------

    def min_time(self) -> FrontierPoint:
        """The unconstrained fastest point (the scalar PBQP plan)."""
        if not self.points:
            raise ValueError("frontier is empty")
        return self.points[0]

    def knee(self) -> FrontierPoint:
        """The knee point: closest to the per-objective ideal (seeded ties)."""
        vectors = [point.vector for point in self.points]
        return self.points[knee_index(vectors, seed=self.seed)]

    def min_time_under(
        self, constraints: Optional[Dict[str, float]] = None
    ) -> Optional[FrontierPoint]:
        """Fastest point satisfying ``{objective}_max`` bounds (or ``None``).

        Defaults to the constraints the frontier was built with.
        """
        bounds = constraints if constraints is not None else self.constraints
        vectors = [point.vector for point in self.points]
        index = min_time_under_index(vectors, bounds, seed=self.seed)
        return None if index is None else self.points[index]

    def lexicographic(self, order: Sequence[str] = OBJECTIVES) -> FrontierPoint:
        """Minimum under a most-important-first objective ordering."""
        vectors = [point.vector for point in self.points]
        return self.points[lexicographic_index(vectors, order=order, seed=self.seed)]

    def select(
        self,
        mode: str = "knee",
        constraints: Optional[Dict[str, float]] = None,
        order: Sequence[str] = OBJECTIVES,
    ) -> dict:
        """ECC-selector shaped decision: pareto set, best point, decision record.

        ``mode`` is ``"knee"``, ``"min_time_under"`` or ``"lexicographic"``.
        ``min_time_under`` falls back to the knee (recorded in the decision)
        when no point satisfies the constraints.
        """
        if mode == "knee":
            best: Optional[FrontierPoint] = self.knee()
            decision = {"mode": "knee", "seed": self.seed}
        elif mode == "min_time_under":
            best = self.min_time_under(constraints)
            if best is None:
                best = self.knee()
                decision = {
                    "mode": "knee",
                    "seed": self.seed,
                    "fallback_from": "min_time_under",
                }
            else:
                decision = {"mode": "min_time_under", "seed": self.seed}
        elif mode == "lexicographic":
            best = self.lexicographic(order)
            decision = {"mode": "lexicographic", "seed": self.seed, "order": list(order)}
        else:
            raise ValueError(
                f"unknown decision mode {mode!r}; expected 'knee', "
                "'min_time_under' or 'lexicographic'"
            )
        return {"pareto": list(self.points), "best": best, "decision": decision}

    # -- reporting --------------------------------------------------------------

    def format(self) -> str:
        """Human-readable frontier table."""
        plural = "s" if self.threads != 1 else ""
        batch = f", batch {self.batch}" if self.batch != 1 else ""
        platform = platform_label(self.platform_name)
        lines = [
            f"Pareto frontier — {self.network_name} on {platform} "
            f"({self.threads} thread{plural}{batch}, seed {self.seed})",
            f"  {len(self.points)} nondominated of {self.candidates_evaluated} candidate plans",
            f"  {'time ms':>10} {'workspace KiB':>14} {'energy mJ':>10} "
            f"{'acc loss':>9} {'dtype':>5}  generator",
        ]
        for point in self.points:
            vector = point.vector
            lines.append(
                f"  {vector.time_ms:>10.2f} "
                f"{vector.peak_workspace_bytes / 1024.0:>14.1f} "
                f"{vector.energy_proxy_j * 1e3:>10.3f} "
                f"{vector.accuracy_proxy:>9.5f} "
                f"{point.plan.dtype:>5}  {point.generator}"
            )
        return "\n".join(lines)

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": FRONTIER_FORMAT,
            "network": self.network_name,
            "platform": self.platform_name,
            "threads": self.threads,
            "batch": self.batch,
            "seed": self.seed,
            "constraints": dict(self.constraints),
            "candidates_evaluated": self.candidates_evaluated,
            "dominated_count": self.dominated_count,
            "points": [point.to_dict() for point in self.points],
        }

    def to_json(self) -> str:
        """Canonical JSON: key-sorted and without volatile fields.

        ``solve_seconds`` is deliberately excluded so the output is
        byte-identical across runs under a fixed seed.
        """
        return jsondoc.dumps(self.to_dict())

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def from_dict(cls, document: dict, dt_graph: DTGraph) -> "Frontier":
        if document.get("format") != FRONTIER_FORMAT:
            raise ValueError(
                f"unexpected frontier format {document.get('format')!r} "
                f"(expected {FRONTIER_FORMAT!r})"
            )
        return cls(
            network_name=document["network"],
            platform_name=document["platform"],
            threads=int(document["threads"]),
            batch=int(document.get("batch", 1)),
            seed=int(document.get("seed", 0)),
            points=[
                FrontierPoint.from_dict(entry, dt_graph)
                for entry in document["points"]
            ],
            constraints={
                key: float(value)
                for key, value in document.get("constraints", {}).items()
            },
            candidates_evaluated=int(document.get("candidates_evaluated", 0)),
            dominated_count=int(document.get("dominated_count", 0)),
        )

    @classmethod
    def load(cls, path: Union[str, Path], dt_graph: DTGraph) -> "Frontier":
        return cls.from_dict(json.loads(Path(path).read_text()), dt_graph)


# ---------------------------------------------------------------------------
# Candidate generation
# ---------------------------------------------------------------------------


def _scaled(weight: float, values: np.ndarray, scale: float) -> np.ndarray:
    """One objective's term of a weighted sum: 0 for a zero weight
    (``0 * inf`` is NaN), else ``weight * value / scale``."""
    return np.zeros(values.shape) if weight == 0.0 else weight * values / scale


class _FrontierVariants:
    """The frontier's workspace caps, then its scalarisations, as cost variants.

    Cap slices are the time costs with every primitive above the cap masked
    to ``inf``; weight slices are the weighted sums of each objective over
    its :func:`_normalizer`.  Both are elementwise over the encoding's dense
    arrays.
    """

    def __init__(
        self, caps: Sequence[float], weights: Sequence[Tuple[float, float, float]]
    ) -> None:
        self.caps = list(caps)
        self.weights = list(weights)

    @property
    def batch(self) -> int:
        return len(self.caps) + len(self.weights)

    def costs(self, encoding: PBQPEncoding) -> Tuple[np.ndarray, np.ndarray]:
        time, dt_time = encoding.time, encoding.dt_time
        workspace, energy, dt_energy = encoding.objectives()
        time_scale, mem_scale, energy_scale = (
            _normalizer(values) for values in (time, workspace, energy)
        )
        nodes = [np.where(workspace <= cap, time, np.inf) for cap in self.caps]
        nodes.extend(
            _scaled(w_time, time, time_scale)
            + _scaled(w_mem, workspace, mem_scale)
            + _scaled(w_energy, energy, energy_scale)
            for w_time, w_mem, w_energy in self.weights
        )
        conversions = [dt_time] * len(self.caps)
        # No conversion chain: illegal under every weighting.
        conversions.extend(
            np.where(
                dt_time == np.inf,
                np.inf,
                _scaled(w_time, dt_time, time_scale) + _scaled(w_energy, dt_energy, energy_scale),
            )
            for w_time, _, w_energy in self.weights
        )
        return np.stack(nodes), np.stack(conversions)


def _solve_variants(
    context: SelectionContext,
    caps: Sequence[float],
    weights: Sequence[Tuple[float, float, float]],
    known: AbstractSet[tuple] = frozenset(),
) -> List[Optional[NetworkPlan]]:
    """One plan per cap, then per weight triple, from one batched PBQP solve.

    Each slice steers the search; its plan is finalized against the
    context's *true* tables so its cost vector is exact.  An infeasible
    slice yields ``None``, and so does a slice whose decoded choices'
    :func:`_signature` is in ``known`` or repeats an earlier slice's: it is
    never legalized.
    """
    variants = _FrontierVariants(caps, weights)
    if variants.batch == 0:
        return []
    labels = [f"cap:{int(cap)}" for cap in caps]
    labels.extend("weights:" + "/".join(f"{w:g}" for w in triple) for triple in weights)
    selector = PBQPSelector()
    graph, id_to_layer = selector.build_pbqp(context, variants)
    solutions = selector.solver.solve(graph)
    assert isinstance(solutions, list)
    seen = set(known)
    plans: List[Optional[NetworkPlan]] = []
    for label, solution in zip(labels, solutions):
        plan = None
        if solution is not None:
            conv_primitives, wildcard_layouts = selector.decode_assignment(
                context, graph, id_to_layer, solution.assignment
            )
            signature = _signature(context.dtype, conv_primitives, wildcard_layouts)
            if signature not in seen:
                seen.add(signature)
                plan = finalize_plan(context, "frontier", conv_primitives, wildcard_layouts)
                plan.metadata["generator"] = label
        plans.append(plan)
    return plans


def _normalizer(values: np.ndarray) -> float:
    """An objective's scalarization normalizer: its largest per-primitive
    value (1.0 when that is 0 or there is none)."""
    return (float(values.max()) if values.size else 1.0) or 1.0


def _workspace_floor(context: SelectionContext) -> float:
    """The lowest achievable peak workspace: every layer takes its smallest-
    workspace primitive.  A cap below it leaves some layer with no primitive."""
    workspace, starts = context.encoding().workspace()
    return float(np.minimum.reduceat(workspace, starts).max())


def workspace_levels(context: SelectionContext) -> List[float]:
    """The feasible peak-workspace caps, lowest first.

    The floor is the lowest achievable peak (every layer takes its smallest-
    workspace primitive); levels are the distinct per-primitive workspace
    values at or above it — exactly the caps at which the gated PBQP instance
    changes.
    """
    workspace, _ = context.encoding().workspace()
    floor = _workspace_floor(context)
    return sorted({value for value in workspace.tolist() if value >= floor})


def solve_under_workspace_cap(
    context: SelectionContext, cap_bytes: float
) -> Optional[NetworkPlan]:
    """The fastest plan whose peak workspace stays at or under ``cap_bytes``.

    One epsilon-constraint solve: primitives above the per-layer cap are
    masked out and PBQP runs on the capped costs (exact, because peak
    workspace is a max over layers).  This is the frontier's batched solve
    with a single cap.  Returns ``None`` when the cap is infeasible — some
    layer has no primitive that fits.
    """
    if cap_bytes < _workspace_floor(context):
        return None
    (plan,) = _solve_variants(context, [cap_bytes], [])
    return plan


def _signature(
    dtype: str, conv_primitives: Dict[str, str], wildcard_layouts: Dict[str, Layout]
) -> tuple:
    """A candidate's decision identity: its precision plus every layer's
    primitive or adopted layout.

    The dtype is part of the identity: an int8 plan making the same per-layer
    choices as the fp32 plan is a *different* plan (different costs, different
    accuracy), so cross-precision candidates must never dedup each other.
    """
    layouts = {name: layout.name for name, layout in wildcard_layouts.items()}
    return (dtype, frozenset(conv_primitives.items()), frozenset(layouts.items()))


def _plan_signature(plan: NetworkPlan) -> tuple:
    """:func:`_signature` of a plan's choices."""
    wildcard_layouts = {
        name: decision.output_layout
        for name, decision in plan.layer_decisions.items()
        if decision.primitive is None
    }
    return _signature(plan.dtype, plan.conv_selections(), wildcard_layouts)


def build_frontier(
    context: SelectionContext,
    constraints: Optional[Dict[str, float]] = None,
    seed: int = 0,
    budget_steps: int = DEFAULT_BUDGET_STEPS,
    scalarization_weights: Sequence[Tuple[float, float, float]] = SCALARIZATION_WEIGHTS,
    dtype_contexts: Optional[Dict[str, SelectionContext]] = None,
) -> Frontier:
    """Build the Pareto frontier of whole-network plans for one context.

    ``constraints`` (``{objective}_max`` keys) additionally direct the
    epsilon-constraint generator at the given workspace budget, so the
    frontier always contains the best plan *under* the budget when one
    exists; decisions (:meth:`Frontier.min_time_under`) then apply the bounds
    strictly.

    ``dtype_contexts`` maps precision names to selection contexts priced at
    that precision (same network/platform/threads/batch as ``context``).
    Each contributes its scalar PBQP plan as a ``dtype:<name>`` candidate,
    finalized against its *own* tables so its cost vector — including the
    accuracy-loss axis — is exact.  This is what turns the frontier into an
    accuracy-vs-speed trade-off: the int8 plan anchors the fast/lossy end,
    the fp32 plan the exact end.
    """
    constraints = dict(constraints or {})
    # Validate constraint keys up front (same convention as CostVector).
    CostVector().satisfies(constraints)
    started = time.perf_counter()

    # Every candidate is deduplicated by decision signature (first generator
    # wins) and evaluated exactly.
    seen: Set[tuple] = set()
    unique: List[FrontierPoint] = []

    def admit(plan: NetworkPlan, generator: str) -> None:
        signature = _plan_signature(plan)
        if signature not in seen:
            seen.add(signature)
            unique.append(FrontierPoint(plan=plan, vector=plan.cost_vector(), generator=generator))

    # 1. Seed strategies, the scalar PBQP plan first.
    strategies = applicable_strategies(context, include_frameworks=False)
    strategies.sort(key=lambda strategy: (strategy.name != "pbqp"))
    for strategy in strategies:
        admit(strategy.build_plan(context), f"strategy:{strategy.name}")

    # 1b. Cross-precision PBQP plans (deterministic dtype order).
    selector = PBQPSelector()
    for dtype_name in sorted(dtype_contexts or {}):
        other = dtype_contexts[dtype_name]
        if other is context or other.dtype == context.dtype:
            continue
        plan = selector.select(other)
        plan.metadata["generator"] = f"dtype:{dtype_name}"
        admit(plan, f"dtype:{dtype_name}")

    # 2. Epsilon-constraint sweep over peak-workspace caps.
    levels = workspace_levels(context)
    caps: List[float] = []
    if budget_steps > 0 and levels:
        if len(levels) <= budget_steps:
            caps = list(levels)
        else:
            # One step sweeps the floor cap alone.
            step = (len(levels) - 1) / max(budget_steps - 1, 1)
            caps = sorted({levels[round(i * step)] for i in range(budget_steps)})
    budget = constraints.get("peak_workspace_bytes_max")
    if budget is not None:
        caps.append(float(budget))
    # A cap below the floor (``levels[0]``) leaves some layer without a
    # primitive: skipped.
    caps = [cap for cap in caps if cap >= levels[0]]

    # 3. Weighted scalarization solves, batched with the caps in one solve;
    # a slice repeating an earlier candidate comes back as None.
    for plan in _solve_variants(context, caps, scalarization_weights, seen):
        if plan is not None:
            admit(plan, plan.metadata["generator"])

    front_indices = _pareto_front([point.vector for point in unique])
    points = [unique[i] for i in front_indices]
    points.sort(key=lambda point: point.vector.as_tuple())

    return Frontier(
        network_name=context.network.name,
        platform_name=context.platform_name,
        threads=context.threads,
        batch=context.batch,
        seed=seed,
        points=points,
        constraints=constraints,
        candidates_evaluated=len(unique),
        dominated_count=len(unique) - len(points),
        solve_seconds=time.perf_counter() - started,
    )
