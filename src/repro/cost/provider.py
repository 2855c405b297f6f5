"""Pluggable cost providers: where a session's cost tables come from.

The paper's workflow is "profile once, select many": the cost tables for one
(network, platform, thread-count) triple are produced ahead of time and then
drive any number of selection queries.  A :class:`CostProvider` abstracts the
*producing* side of that workflow behind one call — given a
:class:`CostQuery` describing the triple (plus the components needed to build
tables), return :class:`~repro.cost.tables.CostTables`.

Three providers ship with the reproduction.  They share one table-building
body (:meth:`CostModelProvider.tables`, one
:func:`~repro.cost.tables.build_cost_tables` call) and differ only in the
:class:`~repro.cost.model.CostModel` they hand it:

* :class:`AnalyticalCostProvider` — prices primitives on a modelled platform
  (:class:`~repro.cost.analytical.AnalyticalCostModel`); this regenerates the
  paper's figures and is the default of :class:`repro.api.Session`;
* :class:`ProfiledCostProvider` — measures the numpy-backed primitives on the
  host machine (:class:`~repro.cost.profiler.WallClockProfiler`), the paper's
  original layerwise-profiling methodology;
* :class:`CostModelProvider` — any given model (used by the ablation
  experiments to inject scaled cost models).

:class:`~repro.cost.store.CostStore` decorates any of them: it persists
produced tables as JSON keyed by the query and the inner provider's name and
version, so warm selections survive process restarts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Protocol, runtime_checkable

from repro.cost.analytical import AnalyticalCostModel
from repro.cost.model import CostModel
from repro.cost.platform import Platform
from repro.cost.profiler import WallClockProfiler
from repro.cost.tables import CostTables, build_cost_tables
from repro.graph.network import Network
from repro.layouts.dt_graph import DTGraph
from repro.primitives.registry import PrimitiveLibrary


@dataclass(frozen=True, eq=False)
class CostQuery:
    """One request for cost tables.

    ``(fingerprint, platform_name, threads, batch, dtype)`` identifies the
    tuple the tables describe; the remaining fields carry the live components
    a provider needs to build (or rebuild) them.
    """

    network: Network
    fingerprint: str
    platform: Optional[Platform]
    platform_name: str
    threads: int
    library: PrimitiveLibrary
    dt_graph: DTGraph
    batch: int = 1
    dtype: str = "fp32"

    def with_threads(self, threads: int) -> "CostQuery":
        """The same query at a different thread count."""
        return dataclasses.replace(self, threads=threads)


@runtime_checkable
class CostProvider(Protocol):
    """Anything that can produce cost tables for a query.

    Attributes
    ----------
    name:
        Short identifier used in reports and cache keys.
    version:
        Version tag of the provider's cost data.  A persistent
        :class:`~repro.cost.store.CostStore` includes it in the on-disk key,
        so bumping the version invalidates previously stored tables.
    """

    name: str
    version: str

    def tables(self, query: CostQuery) -> CostTables:
        """Produce the cost tables for one (network, platform, threads) query."""
        ...


class CostModelProvider:
    """Build cost tables from one :class:`~repro.cost.model.CostModel`.

    This is the one table-building body every shipped provider shares; the
    providers differ only in the model :meth:`cost_model` hands out.  Tables
    are gated by the model's own ``platform`` when it has one.  Used
    directly, it adapts an arbitrary model (the ablation harnesses drive a
    session with scaled cost models this way).
    """

    def __init__(
        self, cost_model: CostModel, name: Optional[str] = None, version: str = "0"
    ) -> None:
        self._cost_model = cost_model
        self.name = name if name is not None else type(cost_model).__name__
        self.version = version

    def cost_model(self, platform: Optional[Platform]) -> CostModel:
        """The model that prices a query on ``platform``."""
        return self._cost_model

    def tables(self, query: CostQuery) -> CostTables:
        return build_cost_tables(
            query.network,
            query.library,
            query.dt_graph,
            self.cost_model(query.platform),
            threads=query.threads,
            batch=query.batch,
            dtype=query.dtype,
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}(name={self.name!r}, version={self.version!r})"


class AnalyticalCostProvider(CostModelProvider):
    """Price primitives on a modelled platform (the figure-generating default)."""

    name = "analytical"
    #: Bump when the analytical model's pricing changes incompatibly.
    version = "1"

    def __init__(self) -> None:
        # Keyed by the platform's value, so a platform that reuses a name
        # with other numbers gets its own model.
        self._models: Dict[Platform, AnalyticalCostModel] = {}

    def cost_model(self, platform: Optional[Platform]) -> CostModel:
        if platform is None:
            raise ValueError("the analytical cost provider requires a platform")
        model = self._models.get(platform)
        if model is None:
            model = self._models[platform] = AnalyticalCostModel(platform)
        return model


class ProfiledCostProvider(CostModelProvider):
    """Measure the numpy-backed primitives on the host machine.

    This is the paper's original methodology end to end: tables come from
    wall-clock timings of each primitive on tensors of each layer's size.
    The ``platform`` of a query is ignored — measurements describe the host,
    which can run every variant, so no platform gating applies.
    """

    name = "profiled"
    version = "1"

    def __init__(
        self,
        profiler: Optional[WallClockProfiler] = None,
        repetitions: int = 3,
        warmup: int = 1,
        seed: int = 0,
    ) -> None:
        self.profiler = (
            profiler
            if profiler is not None
            else WallClockProfiler(repetitions=repetitions, warmup=warmup, seed=seed)
        )
        super().__init__(self.profiler, self.name, self.version)
