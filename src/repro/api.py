"""High-level API: the :class:`Session` facade over the full pipeline.

The paper's workflow is "profile once, select many": the cost tables for one
(network, platform, thread-count) are produced ahead of time and then drive
any number of selection queries.  :class:`Session` owns that whole pipeline —
cost production (one :class:`~repro.cost.model.CostModel` through
:func:`~repro.cost.tables.build_cost_tables`), selection (through the
:data:`~repro.core.strategies.STRATEGIES` table), and execution (through
:class:`~repro.runtime.executor.NetworkExecutor`):

>>> from repro.api import Session
>>> session = Session(cache_dir="~/.cache/repro")                 # doctest: +SKIP
>>> plan = session.plan("alexnet", "intel-haswell")               # doctest: +SKIP
>>> report = plan.execute()                                       # doctest: +SKIP
>>> report = session.run("alexnet", "intel-haswell")              # doctest: +SKIP
>>> comparison = session.compare("alexnet", "intel-haswell")      # doctest: +SKIP

Every selection is one :class:`Plan`: the chosen
:class:`~repro.core.plan.NetworkPlan` (which records strategy, platform,
threads, batch and dtype) bound to its network, library and DT graph.
:meth:`Session.plan` is the one selection entry point; :meth:`Session.compare`
and :meth:`Session.baseline` return unverified plans from the same path.  A
session is the only code that builds a
:class:`~repro.core.selector.SelectionContext` or a :class:`Plan`, and each
call resolves its model and platform once, however many strategies or
precisions it plans.

The session memoizes profiled :class:`~repro.core.selector.SelectionContext`
objects (and therefore the cost tables) keyed by ``(network fingerprint,
platform, threads, batch, dtype)``, and one execution weight store per
network that every plan of that network shares; with a ``cache_dir`` the
tables additionally persist to a :class:`~repro.cost.store.CostStore`, so a
*fresh process* pointed at the same directory performs zero profiling.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.plan import NetworkPlan, conversion_groups, platform_label
from repro.core.selector import SelectionContext
from repro.core.strategies import (
    BASELINE_STRATEGY,
    applicable_strategies,
    get_strategy,
)
from repro.cost.analytical import AnalyticalCostModel
from repro.cost.model import CostModel
from repro.cost.platform import Platform, get_platform
from repro.cost.serialize import plan_from_dict, save_plan
from repro.cost.store import CostStore
from repro.cost.tables import CostQuery, CostTables, build_cost_tables
from repro.graph.layer import InputLayer
from repro.graph.network import Network
from repro.graph.scenario import DTYPES
from repro.layouts.dt_graph import DTGraph
from repro.layouts.transforms import default_transform_library
from repro.lru import BuildOnceLRU
from repro.models import build_model
from repro.multiobj.frontier import DEFAULT_BUDGET_STEPS, Frontier, build_frontier
from repro.primitives.registry import PrimitiveLibrary, default_primitive_library
from repro.runtime.executor import ExecutionTrace, NetworkExecutor
from repro.runtime.weights import WeightStore

ModelLike = Union[str, Network]
PlatformLike = Union[str, Platform, None]


def network_fingerprint(network: Network) -> str:
    """A stable structural fingerprint of a network.

    Two networks with the same layers (names, kinds and parameters) and the
    same data-flow edges share a fingerprint, so structurally identical
    builds hit the same session cache entry regardless of object identity.
    """
    parts: List[str] = [network.name]
    for layer in network.topological_order():
        fields = dataclasses.asdict(layer)
        described = ",".join(f"{key}={fields[key]!r}" for key in sorted(fields))
        inputs = ",".join(network.inputs_of(layer.name))
        parts.append(f"{type(layer).__name__}({described})<-[{inputs}]")
    digest = hashlib.sha256("|".join(parts).encode()).hexdigest()
    return f"{network.name}:{digest[:16]}"


def _check_dtype(dtype: str) -> None:
    if dtype not in DTYPES:
        raise ValueError(f"unknown dtype {dtype!r}; expected one of {DTYPES}")


def _with_dtype(query: CostQuery, dtype: str) -> CostQuery:
    """The same resolved query at another precision."""
    _check_dtype(dtype)
    return dataclasses.replace(query, dtype=dtype)


@dataclass(frozen=True)
class CacheInfo:
    """Statistics of the session's context cache."""

    hits: int
    misses: int
    contexts: int
    #: Weight stores held for execution: at most one per resolved network.
    weight_stores: int = 0


# ---------------------------------------------------------------------------
# Execution reports
# ---------------------------------------------------------------------------


@dataclass
class LayerExecution:
    """Predicted-versus-measured timing of one layer in one forward pass."""

    layer: str
    #: Selected primitive name for convolution layers, ``None`` otherwise.
    primitive: Optional[str]
    #: Cost-model prediction for the layer, in ms (0 for non-conv layers).
    predicted_ms: float
    #: Measured compute time of the layer on this host, in ms.
    measured_ms: float

    @property
    def delta_ms(self) -> float:
        """Measured minus predicted time (positive: slower than predicted)."""
        return self.measured_ms - self.predicted_ms


@dataclass
class ConversionExecution:
    """Predicted-versus-measured timing of one planned conversion chain.

    The executor converts once per (producer, target layout) and reuses the
    result for every other consumer — and plan pricing attributes the chain's
    cost the same way — so within a fan-out dedup group exactly one entry
    carries the prediction and the measurement; the reusing edges appear
    with ``deduplicated`` set and both numbers at zero.
    """

    producer: str
    consumer: str
    source_layout: str
    target_layout: str
    #: Plan-attributed cost of the chain, in ms (0 on deduplicated edges).
    predicted_ms: float
    #: Measured chain time on this host, in ms (0 on deduplicated edges,
    #: whose conversion never ran).
    measured_ms: float
    #: True when this edge reuses a chain executed (and priced) for an
    #: earlier consumer of the same producer.
    deduplicated: bool = False


@dataclass
class ExecutionReport:
    """What one executed forward pass did, against what the plan predicted.

    The predicted numbers come from the plan's cost model (for the default
    analytical model they describe the *modelled* platform, not this
    host, so their absolute scale differs from the measured numbers; the
    per-layer *proportions* are the comparable quantity).
    """

    model: str
    #: The plan's platform name, ``None`` for a platform-less cost model.
    platform: Optional[str]
    threads: int
    strategy: str
    #: Output of the network's output layer in canonical CHW order — or, for
    #: a multi-output network, a dict mapping each output layer's name to its
    #: CHW array (mirroring :meth:`NetworkExecutor.run_traced`).
    output: Union[np.ndarray, Dict[str, np.ndarray]]
    #: Per-layer predicted/measured timings, in execution order.
    layers: List[LayerExecution]
    #: Number of layout-conversion chains actually executed.
    conversions_executed: int
    #: Number of distinct conversion chains the plan calls for — one per
    #: (producer, target layout) dedup group, matching what the executor
    #: runs, so this equals ``conversions_executed`` on a faithful pass.
    conversions_planned: int
    #: Predicted total layout-conversion cost, in ms.
    predicted_conversion_ms: float
    #: Measured total layout-conversion time, in ms.
    measured_conversion_ms: float
    #: Wall-clock time of the whole forward pass, in ms.
    wall_ms: float
    #: Number of images in the forward pass (1 for a single-image run).
    batch: int = 1
    #: Name of the network's primary (last) output layer.
    output_layer: str = ""
    #: Per-edge conversion accounting, in plan order; fan-out edges that
    #: reuse another edge's chain are flagged ``deduplicated``.
    conversions: List[ConversionExecution] = field(default_factory=list)

    @property
    def heads(self) -> Dict[str, np.ndarray]:
        """Every output head by layer name, single-output networks included.

        A single-output network reports one entry under its output layer's
        name; a multi-output network (e.g. ``googlenet-aux``) reports every
        head, so auxiliary classifiers are first-class rather than hidden
        inside the :attr:`output` union.
        """
        if isinstance(self.output, dict):
            return dict(self.output)
        return {self.output_layer: self.output}

    @property
    def primary_output(self) -> np.ndarray:
        """The primary head's tensor (the network's last output layer)."""
        if isinstance(self.output, dict):
            return self.output[self.output_layer]
        return self.output

    @property
    def predicted_total_ms(self) -> float:
        """The plan's predicted whole-network time, in ms."""
        return sum(entry.predicted_ms for entry in self.layers) + self.predicted_conversion_ms

    @property
    def measured_total_ms(self) -> float:
        """Measured compute plus conversion time, in ms."""
        return sum(entry.measured_ms for entry in self.layers) + self.measured_conversion_ms

    @property
    def measured_per_image_ms(self) -> float:
        """Measured total time per image, in ms."""
        return self.measured_total_ms / self.batch

    @property
    def prediction_ratio(self) -> float:
        """Measured over predicted total time (host-vs-model scale factor)."""
        predicted = self.predicted_total_ms
        return float("inf") if predicted <= 0 else self.measured_total_ms / predicted

    def layer(self, name: str) -> LayerExecution:
        """The timing entry of one layer."""
        for entry in self.layers:
            if entry.layer == name:
                return entry
        raise KeyError(f"no layer {name!r} in this report")

    def format(self) -> str:
        """Human-readable per-layer report."""
        plural = "s" if self.threads != 1 else ""
        batch = f", batch {self.batch}" if self.batch != 1 else ""
        platform = platform_label(self.platform)
        lines = [
            f"Execution report — {self.model} [{self.strategy}] on {platform} "
            f"({self.threads} thread{plural}{batch})",
            f"  measured {self.measured_total_ms:.2f} ms on this host "
            f"({self.conversions_executed}/{self.conversions_planned} planned layout "
            f"conversions executed, costing {self.measured_conversion_ms:.2f} ms)",
            f"  predicted {self.predicted_total_ms:.2f} ms on {platform} "
            f"(measured/predicted ratio {self.prediction_ratio:.1f}x)",
            f"  {'layer':<24} {'primitive':<28} {'predicted ms':>13} {'measured ms':>12}",
        ]
        for entry in self.layers:
            primitive = entry.primitive if entry.primitive is not None else "-"
            lines.append(
                f"  {entry.layer:<24} {primitive:<28} "
                f"{entry.predicted_ms:>13.3f} {entry.measured_ms:>12.3f}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ExecutionReport({self.model!r}, strategy={self.strategy!r}, "
            f"measured={self.measured_total_ms:.2f} ms)"
        )


@dataclass
class Plan:
    """One selection: the chosen plan bound to its network and library.

    Produced by :meth:`Session.plan`; :meth:`execute` runs the selected
    instantiation on a real input and reports per-layer measured times,
    layout-conversion accounting and predicted-versus-measured deltas.
    Strategy, platform, threads, batch and dtype live on
    :attr:`network_plan`; ``model`` is the session's network fingerprint,
    which for a hand-built network differs from the plan's network name.

    ``weight_source`` maps a seed to the :class:`WeightStore` to execute
    with: the session's per-network store, so every plan of one network
    shares one set of weights.
    """

    network_plan: NetworkPlan
    model: str
    network: Network
    library: PrimitiveLibrary
    dt_graph: DTGraph
    weight_source: Callable[[int], WeightStore] = field(repr=False, compare=False)
    #: Whether the profiled context (cost tables) was reused from the cache.
    from_cache: bool = False

    # -- passthroughs -------------------------------------------------------------

    @property
    def strategy(self) -> str:
        return self.network_plan.strategy

    @property
    def total_ms(self) -> float:
        """Predicted whole-network time in milliseconds."""
        return self.network_plan.total_ms

    @property
    def per_image_ms(self) -> float:
        """Predicted whole-network time per image, in milliseconds."""
        return self.network_plan.per_image_ms

    def speedup_over(self, other: "Plan") -> float:
        """Speedup of this plan over another plan."""
        return self.network_plan.speedup_over(other.network_plan)

    def summary(self) -> str:
        """The plan's selection table (see :meth:`NetworkPlan.summary`)."""
        return self.network_plan.summary()

    # -- execution ----------------------------------------------------------------

    def input_shape(self) -> Tuple[int, int, int]:
        """The CHW shape the network's input layer expects."""
        for layer in self.network.topological_order():
            if isinstance(layer, InputLayer):
                return layer.shape
        raise ValueError(f"network {self.network.name!r} has no input layer")

    def executor(self, seed: int = 0) -> NetworkExecutor:
        """An executor for this plan over the shared weights for ``seed``.

        The weights come from the plan's weight store (see the class
        docstring), so they are synthesized once per network and seed, not
        once per executor; a store is deterministic in (network, seed).
        """
        return NetworkExecutor(
            self.network, self.network_plan, self.library, self.weight_source(seed)
        )

    def execute(
        self, input: Optional[np.ndarray] = None, seed: int = 0
    ) -> ExecutionReport:
        """Run one forward pass and report measured against predicted costs.

        Parameters
        ----------
        input:
            CHW input tensor (or an ``(N, C, H, W)`` minibatch); a
            deterministic random input (from ``seed``) of the right shape is
            generated when omitted — batched when the plan was selected for a
            batch larger than one.
        seed:
            Seed for the weights and the generated input, so two plans
            executed with the same seed compute over identical weights.
            Weights are shared per network and seed: every plan a Session
            built for one network reuses one store, so only the first pass
            at a seed synthesizes them.
        """
        batch = self.network_plan.batch
        if input is None:
            shape = self.input_shape()
            if batch > 1:
                shape = (batch,) + shape
            input = (
                np.random.default_rng(seed)
                .standard_normal(shape)
                .astype(np.float32)
            )
        else:
            # The report compares measured times against the plan's predicted
            # costs, which were priced for the plan's batch of images — a mismatched
            # input would silently skew every predicted-vs-measured number.
            input = np.asarray(input)
            input_batch = input.shape[0] if input.ndim == 4 else 1
            if input_batch != batch:
                raise ValueError(
                    f"input carries {input_batch} image(s) but this plan was "
                    f"priced for batch {batch}; select with "
                    f"batch={input_batch} (or reshape the input) to compare "
                    "like with like"
                )
        output, trace = self.executor(seed=seed).run_traced(input)
        return self._report(output, trace)

    def _report(
        self,
        output: Union[np.ndarray, Dict[str, np.ndarray]],
        trace: ExecutionTrace,
    ) -> ExecutionReport:
        plan = self.network_plan
        layers = [
            LayerExecution(
                layer=name,
                primitive=plan.decision(name).primitive,
                predicted_ms=1e3 * plan.decision(name).cost,
                measured_ms=1e3 * trace.layer_seconds[name],
            )
            for name in trace.layer_order
        ]
        # The primary head is the last output layer in topological order
        # (auxiliary heads branch off earlier in the network).
        output_names = {layer.name for layer in self.network.output_layers()}
        output_layer = ""
        for layer in self.network.topological_order():
            if layer.name in output_names:
                output_layer = layer.name
        # Per-edge conversion accounting.  The first edge of each conversion
        # group in execution order carries the chain's predicted cost, and the
        # executor charges its measured time to the same edge.
        groups = conversion_groups(plan.edge_decisions, trace.layer_order)
        carriers = {id(members[0]) for members in groups.values()}
        conversions = [
            ConversionExecution(
                producer=edge.producer,
                consumer=edge.consumer,
                source_layout=edge.source_layout.name,
                target_layout=edge.target_layout.name,
                predicted_ms=1e3 * edge.cost,
                measured_ms=1e3
                * trace.conversion_seconds.get((edge.producer, edge.consumer), 0.0),
                deduplicated=id(edge) not in carriers,
            )
            for edge in plan.conversions()
        ]
        return ExecutionReport(
            model=self.model,
            platform=plan.platform_name,
            threads=plan.threads,
            strategy=plan.strategy,
            output=output,
            layers=layers,
            conversions_executed=trace.conversions_executed,
            conversions_planned=len(groups),
            predicted_conversion_ms=1e3 * plan.dt_cost,
            measured_conversion_ms=1e3 * trace.total_conversion_seconds,
            wall_ms=1e3 * trace.wall_seconds,
            batch=trace.batch,
            output_layer=output_layer,
            conversions=conversions,
        )

    # -- persistence --------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Write the underlying plan as JSON (see :mod:`repro.cost.serialize`)."""
        save_plan(self.network_plan, path)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"Plan({self.model!r}, strategy={self.strategy!r}, "
            f"predicted={self.total_ms:.2f} ms)"
        )


# ---------------------------------------------------------------------------
# Strategy comparisons
# ---------------------------------------------------------------------------


@dataclass
class ComparisonReport:
    """Every evaluated strategy for one (model, platform, threads), ranked.

    ``results`` is sorted by total predicted cost, fastest first; speedups
    are against the paper's common baseline (single-threaded SUM2D).
    """

    model: str
    #: The plan's platform name, ``None`` for a platform-less cost model.
    platform: Optional[str]
    threads: int
    baseline: Plan
    results: List[Plan]
    #: Minibatch size every compared selection was priced for.
    batch: int = 1
    #: Numeric precision every compared selection was priced for.
    dtype: str = "fp32"

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def best(self) -> Plan:
        """The fastest strategy's plan."""
        return self.results[0]

    def speedup(self, plan: Plan) -> float:
        """Speedup of one plan over the common baseline."""
        return plan.speedup_over(self.baseline)

    def rows(self) -> List[Tuple[str, float, float]]:
        """(strategy, total ms, speedup-vs-baseline) rows, fastest first."""
        return [(r.strategy, r.total_ms, self.speedup(r)) for r in self.results]

    def format(self, title: Optional[str] = None) -> str:
        """Render the ranked comparison table."""
        plural = "s" if self.threads != 1 else ""
        batch = f", batch {self.batch}" if self.batch != 1 else ""
        dtype = f", {self.dtype}" if self.dtype != "fp32" else ""
        title = title or (
            f"Strategy comparison — {self.model} on {platform_label(self.platform)}, "
            f"{self.threads} thread{plural}{batch}{dtype}"
        )
        header = f"{'strategy':<20}{'total ms':>12}{'speedup':>10}"
        lines = [title, header, "-" * len(header)]
        for strategy, total_ms, speedup in self.rows():
            lines.append(f"{strategy:<20}{total_ms:>12.2f}{speedup:>9.2f}x")
        lines.append(
            "(sorted by total cost; speedup over the single-threaded "
            f"{self.baseline.strategy} baseline)"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The session
# ---------------------------------------------------------------------------


class Session:
    """Facade over the full pipeline: costs -> selection -> execution.

    The session owns one primitive library and one DT graph (shared by every
    query), resolves strategies through the strategy table, and prices cost
    tables with one :class:`~repro.cost.model.CostModel`.
    Profiled contexts are memoized in-process keyed by ``(network
    fingerprint, platform, threads, batch, dtype)`` — the platform by its
    value, not its name — in a bounded memo that
    evicts the least recently used context above
    :data:`repro.lru.CAPACITY`; passing ``cache_dir`` persists the tables in
    a :class:`~repro.cost.store.CostStore`, so warm selections also survive
    process restarts.

    Parameters
    ----------
    library:
        The primitive library (default: the full >80-variant library).
    dt_graph:
        The layout-transformation graph (default: built from the library).
    cost_model:
        What prices the tables.  ``None`` (the default) prices each query's
        platform with that platform's
        :class:`~repro.cost.analytical.AnalyticalCostModel`.  A model with a
        ``platform`` plans on it when a query names none; a model without
        one (the host profiler) labels its plans with its ``name``.
    cache_dir:
        If given, persist produced cost tables in this directory.
    """

    def __init__(
        self,
        library: Optional[PrimitiveLibrary] = None,
        dt_graph: Optional[DTGraph] = None,
        cost_model: Optional[CostModel] = None,
        cache_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        self.library = library if library is not None else default_primitive_library()
        self.dt_graph = (
            dt_graph
            if dt_graph is not None
            else DTGraph(self.library.layouts_used(), default_transform_library())
        )
        self.cost_model = cost_model
        #: The persistent cost store, if this session has one.
        self.store: Optional[CostStore] = (
            CostStore(cache_dir) if cache_dir is not None else None
        )
        # Without a model of its own, the session prices each platform with
        # that platform's analytical model, keyed by the platform's value so
        # a platform that reuses a name with other numbers gets its own.
        self._analytical: Dict[Platform, AnalyticalCostModel] = {}
        self._contexts: BuildOnceLRU[SelectionContext] = BuildOnceLRU()
        self._networks: Dict[str, Network] = {}
        # Execution weights: at most one store per resolved network, keyed
        # like ``_networks`` and replaced when another seed is asked for.
        self._weights: Dict[str, WeightStore] = {}
        # The session is shared by every thread of the planning service, so
        # the network and weight dictionaries live behind one lock.
        self._lock = threading.Lock()

    # -- cache plumbing ---------------------------------------------------------

    def _resolve_platform(self, platform: PlatformLike) -> Optional[Platform]:
        """Resolve a platform argument into a Platform, or None.

        ``None`` stands for the cost model's own platform: a model built on
        one platform prices (and gates) that platform, so it labels and keys
        the context.  A model with no platform (e.g. the host profiler)
        plans platform-less: its plans record ``platform: null``.
        """
        if platform is None:
            platform = getattr(self.cost_model, "platform", None)
            if platform is None and self.cost_model is None:
                raise ValueError("the analytical cost model requires a platform")
        if platform is None or isinstance(platform, Platform):
            return platform
        return get_platform(platform)

    def _resolve_network(self, model: ModelLike) -> Tuple[str, Network]:
        """Resolve a model name or network into (fingerprint, network)."""
        if isinstance(model, Network):
            fingerprint = network_fingerprint(model)
            with self._lock:
                return fingerprint, self._networks.setdefault(fingerprint, model)
        # Zoo builders are deterministic, so the name is the fingerprint and
        # the built graph can be shared across thread counts and platforms.
        # Two threads racing here may both build; setdefault keeps exactly
        # one, so every caller shares the same Network object.
        with self._lock:
            network = self._networks.get(model)
        if network is None:
            built = build_model(model)
            with self._lock:
                network = self._networks.setdefault(model, built)
        return model, network

    def _weights_for(self, fingerprint: str, network: Network, seed: int) -> WeightStore:
        """The session's weight store for ``network`` at ``seed``.

        Building a store synthesizes nothing (weights are made on first
        use), so it is cheap to build under the lock.
        """
        with self._lock:
            store = self._weights.get(fingerprint)
            if store is None or store.seed != seed or store.network is not network:
                store = self._weights[fingerprint] = WeightStore(network, seed=seed)
            return store

    def _plan_handle(
        self,
        network_plan: NetworkPlan,
        fingerprint: str,
        network: Network,
        from_cache: bool = False,
    ) -> Plan:
        """An executable :class:`Plan` drawing its weights from this session."""
        return Plan(
            network_plan=network_plan,
            model=fingerprint,
            network=network,
            library=self.library,
            dt_graph=self.dt_graph,
            from_cache=from_cache,
            weight_source=functools.partial(self._weights_for, fingerprint, network),
        )

    def _query(
        self,
        model: ModelLike,
        platform: PlatformLike,
        threads: int,
        batch: int = 1,
        dtype: str = "fp32",
    ) -> CostQuery:
        """Validate and resolve one (model, platform, threads, batch, dtype) request."""
        if batch < 1:
            raise ValueError("batch must be >= 1")
        _check_dtype(dtype)
        resolved = self._resolve_platform(platform)
        message = None if resolved is None else resolved.threads_error(threads)
        if message is not None:
            raise ValueError(f"threads {message}")
        fingerprint, network = self._resolve_network(model)
        return CostQuery(
            network=network,
            fingerprint=fingerprint,
            platform=resolved,
            threads=threads,
            library=self.library,
            dt_graph=self.dt_graph,
            batch=batch,
            dtype=dtype,
        )

    @staticmethod
    def _context_key(query: CostQuery) -> Tuple:
        """The in-process memo key of a query's context.

        The platform is keyed by its value, so a platform that reuses a name
        with other numbers never aliases a cached context.  A session has one
        cost model, so a platform-less key needs no model name.
        """
        return (
            query.fingerprint,
            query.platform,
            query.threads,
            query.batch,
            query.dtype,
        )

    def _cost_model_for(self, platform: Optional[Platform]) -> CostModel:
        """The model that prices a query on ``platform``."""
        if self.cost_model is not None:
            return self.cost_model
        model = self._analytical.get(platform)
        if model is None:
            model = self._analytical.setdefault(platform, AnalyticalCostModel(platform))
        return model

    def _tables(self, query: CostQuery) -> CostTables:
        """The query's cost tables: from the store when it holds them, else built."""
        model = self._cost_model_for(query.platform)
        build = functools.partial(
            build_cost_tables,
            query.network,
            query.library,
            query.dt_graph,
            model,
            threads=query.threads,
            batch=query.batch,
            dtype=query.dtype,
        )
        if self.store is None:
            return build()
        return self.store.tables(query, model, build)

    def _build_context(self, query: CostQuery) -> SelectionContext:
        """Build a selection context around the query's cost tables."""
        context = SelectionContext(
            network=query.network,
            library=self.library,
            dt_graph=self.dt_graph,
            platform_name=None if query.platform is None else query.platform.name,
            threads=query.threads,
            tables=self._tables(query),
            platform=query.platform,
            batch=query.batch,
            dtype=query.dtype,
        )
        if query.threads != 1:
            # Framework emulations lazily need single-threaded tables; build
            # them through the same path, so a persistent store serves (and
            # captures) them too.
            context.single_thread_tables_factory = functools.partial(
                self._tables, query.with_threads(1)
            )
        return context

    def _ensure_context(self, query: CostQuery) -> Tuple[SelectionContext, bool]:
        """Memoized-or-built context for ``query``: one table build per miss."""
        return self._contexts.get_or_build(
            self._context_key(query), functools.partial(self._build_context, query)
        )

    def context_for(
        self,
        model: ModelLike,
        platform: PlatformLike,
        threads: int = 1,
        batch: int = 1,
        dtype: str = "fp32",
    ) -> SelectionContext:
        """The memoized profiled context for one (model, platform, threads, batch, dtype)."""
        return self._ensure_context(self._query(model, platform, threads, batch, dtype))[0]

    def cache_info(self) -> CacheInfo:
        """Hit/miss counters and the number of cached contexts."""
        hits, misses, contexts = self._contexts.stats()
        with self._lock:
            weight_stores = len(self._weights)
        return CacheInfo(
            hits=hits, misses=misses, contexts=contexts, weight_stores=weight_stores
        )

    def clear_cache(self) -> None:
        """Drop every cached context and weight store; reset the statistics.

        Execution weights are shared per network and seed by every plan this
        session built; after clearing, the next execute synthesizes them
        anew (bit-identical, since a store is deterministic in network and
        seed).  The persistent store (if any) is untouched; use
        :meth:`CostStore.clear` to delete on-disk entries.
        """
        self._contexts.clear()
        with self._lock:
            self._networks.clear()
            self._weights.clear()

    # -- selection API ----------------------------------------------------------

    def plan(
        self,
        model: ModelLike,
        platform: PlatformLike,
        strategy: str = "pbqp",
        threads: int = 1,
        batch: int = 1,
        dtype: str = "fp32",
        verify: bool = True,
    ) -> Plan:
        """Run one strategy for one (model, platform, threads, batch, dtype) combination.

        ``verify`` runs the static plan verifier
        (:mod:`repro.analysis.plan_verifier`) over the selected plan and
        raises :class:`~repro.analysis.plan_verifier.PlanVerificationError`
        if any error-severity finding survives — a buggy strategy or cost
        model is caught here, before anything executes.  Pass
        ``verify=False`` to opt out (e.g. in tight benchmarking loops).

        Raises
        ------
        ValueError
            If the strategy's :attr:`~repro.core.strategies.Strategy.applies_to`
            gate rejects the context's platform (e.g. ``mkldnn`` on ARM).
        """
        return self._plan_query(
            self._query(model, platform, threads, batch, dtype), strategy, verify
        )

    def _plan_query(self, query: CostQuery, strategy: str, verify: bool) -> Plan:
        """:meth:`plan` for an already resolved query."""
        chosen = get_strategy(strategy)
        context, from_cache = self._ensure_context(query)
        if not chosen.applies_to(context):
            name = context.platform_name
            where = platform_label(name) if name is None else f"platform {name!r}"
            raise ValueError(f"strategy {chosen.name!r} does not apply to {where}")
        network_plan = chosen.build_plan(context)
        if verify:
            from repro.analysis.plan_verifier import raise_for_report, verify_plan

            raise_for_report(
                verify_plan(
                    network_plan,
                    network=query.network,
                    library=self.library,
                    dt_graph=self.dt_graph,
                    source=(
                        f"plan({query.fingerprint!r}, {context.platform_name!r}, "
                        f"{strategy!r})"
                    ),
                )
            )
        return self._plan_handle(
            network_plan, query.fingerprint, query.network, from_cache
        )

    def run(
        self,
        model: ModelLike,
        platform: PlatformLike,
        strategy: str = "pbqp",
        threads: int = 1,
        batch: int = 1,
        dtype: str = "fp32",
        input: Optional[np.ndarray] = None,
        seed: int = 0,
    ) -> ExecutionReport:
        """One-shot plan-and-execute: select, run a forward pass, and report.

        With ``batch > 1`` the selection is priced for that minibatch size
        and the forward pass runs on an ``(N, C, H, W)`` input.  With a
        quantized ``dtype`` the selection is priced (and gated) at that
        precision and the executor runs the primitives through their
        quantized compute paths.
        """
        return self.plan(
            model, platform, strategy=strategy, threads=threads, batch=batch, dtype=dtype
        ).execute(input=input, seed=seed)

    def plan_frontier(
        self,
        model: ModelLike,
        platform: PlatformLike,
        threads: int = 1,
        batch: int = 1,
        constraints: Optional[Dict[str, float]] = None,
        seed: int = 0,
        budget_steps: int = DEFAULT_BUDGET_STEPS,
        dtypes: Optional[Sequence[str]] = None,
    ) -> Frontier:
        """Build the multi-objective Pareto frontier of whole-network plans.

        Reuses the memoized profiled context (the frontier's many PBQP
        solves share one set of cost tables), so a warm session pays no
        re-profiling.  ``constraints`` takes ``{objective}_max`` keys over
        ``time_ms`` / ``peak_workspace_bytes`` / ``energy_proxy_j`` /
        ``accuracy_proxy``; a workspace bound additionally directs an
        epsilon-constraint solve at exactly that budget.

        ``dtypes`` names the precisions competing on the front (default: all
        of :data:`~repro.graph.scenario.DTYPES`).  The first entry is the
        base context; every other precision contributes its own PBQP plan,
        so accuracy-vs-speed becomes a genuine front axis — pass
        ``("fp32",)`` for the pre-precision single-dtype behaviour.  The
        result is deterministic — byte-identical serialization for a fixed
        ``seed``.
        """
        chosen = tuple(dtypes) if dtypes is not None else DTYPES
        if not chosen:
            raise ValueError("dtypes must name at least one precision")
        query = self._query(model, platform, threads, batch, chosen[0])
        context = self._ensure_context(query)[0]
        dtype_contexts = {
            dtype: self._ensure_context(_with_dtype(query, dtype))[0]
            for dtype in chosen[1:]
        }
        return build_frontier(
            context,
            constraints=constraints,
            seed=seed,
            budget_steps=budget_steps,
            dtype_contexts=dtype_contexts or None,
        )

    def plan_from_file(
        self,
        path: Union[str, Path],
        network: Optional[Network] = None,
        verify: bool = True,
    ) -> Plan:
        """Rebuild an executable :class:`Plan` from a saved plan document.

        The network is rebuilt from the model zoo by the plan's recorded
        network name unless an explicit ``network`` is passed; either way it
        is resolved like :meth:`plan`'s, so the loaded plan shares this
        session's weights with every other plan of that network.  ``verify``
        statically checks the raw document first (hand-edited or corrupt
        files are refused with a structured
        :class:`~repro.analysis.plan_verifier.PlanVerificationError` listing
        every problem at once); pass ``verify=False`` to load it anyway.
        Documents in an older plan format are refused either way: they must
        be re-planned.
        """
        document = json.loads(Path(path).read_text())
        if verify:
            from repro.analysis.plan_verifier import raise_for_report, verify_document

            raise_for_report(
                verify_document(
                    document,
                    source=str(path),
                    network=network,
                    library=self.library,
                    dt_graph=self.dt_graph,
                )
            )
        if not isinstance(document, dict):
            raise ValueError(f"plan document {path} is not a JSON object")
        network_plan = plan_from_dict(document, self.dt_graph)
        if network is not None and network.name != network_plan.network_name:
            raise ValueError(
                f"plan was saved for network {network_plan.network_name!r}, "
                f"got {network.name!r}"
            )
        fingerprint, network = self._resolve_network(
            network if network is not None else network_plan.network_name
        )
        return self._plan_handle(network_plan, fingerprint, network)

    def compare(
        self,
        model: ModelLike,
        platform: PlatformLike,
        threads: int = 1,
        strategies: Optional[Sequence[str]] = None,
        include_frameworks: bool = True,
        batch: int = 1,
        dtype: str = "fp32",
    ) -> ComparisonReport:
        """Evaluate every applicable strategy (or a named subset), ranked.

        All strategies share one profiled context, so the whole sweep pays
        for profiling exactly once; the returned report is sorted by total
        cost and carries speedups over the common single-threaded SUM2D
        baseline (priced at the same batch and dtype, so speedups compare
        like with like).
        """
        query = self._query(model, platform, threads, batch, dtype)
        context = self._ensure_context(query)[0]
        if strategies is None:
            chosen = applicable_strategies(context, include_frameworks=include_frameworks)
        else:
            chosen = [get_strategy(name) for name in strategies]
        results = [
            self._plan_query(query, strategy.name, verify=False) for strategy in chosen
        ]
        baseline = self._plan_query(query.with_threads(1), BASELINE_STRATEGY, verify=False)
        return ComparisonReport(
            model=query.fingerprint,
            platform=context.platform_name,
            threads=threads,
            baseline=baseline,
            results=sorted(results, key=lambda plan: plan.total_ms),
            batch=batch,
            dtype=dtype,
        )

    def baseline(
        self,
        model: ModelLike,
        platform: PlatformLike,
        batch: int = 1,
        dtype: str = "fp32",
    ) -> Plan:
        """The common speedup baseline: single-threaded SUM2D (at ``batch``/``dtype``)."""
        return self._plan_query(
            self._query(model, platform, 1, batch, dtype), BASELINE_STRATEGY, verify=False
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        info = self.cache_info()
        return (
            f"{type(self).__name__}(cost_model={self.cost_model!r}, "
            f"contexts={info.contexts}, hits={info.hits}, misses={info.misses})"
        )
