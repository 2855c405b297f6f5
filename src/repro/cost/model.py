"""The cost-model interface shared by the analytical model and the profiler.

The selection machinery (:mod:`repro.core`) is agnostic about where costs come
from: the paper measures wall-clock times of hand-tuned kernels, this
reproduction can either time its numpy primitives (:class:`~repro.cost.profiler.WallClockProfiler`)
or price them on a modelled platform
(:class:`~repro.cost.analytical.AnalyticalCostModel`).  Both expose the same
three queries: the cost vectors of the primitives of a whole list of layers
(one pricing call per table build), and the time and energy of one direct
layout-transformation routine on a tensor of a given shape.  Times are in
seconds, energies in joules.

A model is also the one cost source a :class:`repro.api.Session` prices
with: its ``name`` and ``version`` label platform-less plans and key the
tables a :class:`~repro.cost.store.CostStore` persists.
"""

from __future__ import annotations

from typing import List, Protocol, Sequence, Tuple

from repro.graph.scenario import ConvScenario
from repro.layouts.transforms import LayoutTransform
from repro.primitives.base import ConvPrimitive


class CostModel(Protocol):
    """Anything that can price primitives and layout transformations.

    :meth:`price_layers` is the only primitive query:
    :func:`~repro.cost.tables.build_cost_tables` calls it once per table
    build, with the applicable primitives of every distinct scenario of the
    network in first-seen layer order.  Each conversion hop is priced with
    :meth:`transform_cost` and :meth:`transform_energy`; a chain's energy is
    ``sum`` of its hops' energies in chain order, starting from ``0.0``.  A
    model that also has a ``platform`` attribute gates primitives by it.

    Attributes
    ----------
    name:
        Short identifier of the cost source: the label of a platform-less
        plan and the ``provider`` field of a store key.
    version:
        Version tag of the model's pricing.  A persistent
        :class:`~repro.cost.store.CostStore` includes it in the on-disk key,
        so bumping it invalidates previously stored tables.
    """

    name: str
    version: str

    def price_layers(
        self,
        layers: Sequence[Tuple[Sequence[ConvPrimitive], ConvScenario]],
        threads: int = 1,
    ) -> List[List[Tuple[float, float, float, float]]]:
        """Price an ordered list of ``(primitives, scenario)`` layers in one call.

        Returns, per layer and in order, one ``(time_s, workspace_bytes,
        energy_j, accuracy_loss)`` tuple per primitive, in order.  Pricing
        several layers in one call must give exactly the floats that pricing
        each layer alone gives.
        """
        ...

    def transform_cost(
        self,
        transform: LayoutTransform,
        shape: Tuple[int, int, int],
        threads: int = 1,
        batch: int = 1,
        dtype: str = "fp32",
    ) -> float:
        """Execution time, in seconds, of one direct layout transformation.

        ``shape`` is the per-image ``(C, H, W)`` tensor shape; ``batch`` is
        the number of images converted in one call (the data moved scales
        with it, per-call dispatch does not).  ``dtype`` is the element
        precision of the converted tensor — conversions are pure data
        movement, so narrower elements move proportionally fewer bytes.
        """
        ...

    def transform_energy(
        self,
        transform: LayoutTransform,
        shape: Tuple[int, int, int],
        batch: int = 1,
        dtype: str = "fp32",
    ) -> float:
        """Energy proxy, in joules, of one direct layout transformation."""
        ...
