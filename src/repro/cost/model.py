"""The cost-model interface shared by the analytical model and the profiler.

The selection machinery (:mod:`repro.core`) is agnostic about where costs come
from: the paper measures wall-clock times of hand-tuned kernels, this
reproduction can either time its numpy primitives (:class:`~repro.cost.profiler.WallClockProfiler`)
or price them on a modelled platform
(:class:`~repro.cost.analytical.AnalyticalCostModel`).  Both expose the same
two queries: the cost of running one primitive on one convolutional scenario,
and the cost of running one direct layout-transformation routine on a tensor
of a given shape.  Costs are in seconds.
"""

from __future__ import annotations

from typing import Protocol, Tuple

from repro.graph.scenario import ConvScenario
from repro.layouts.transforms import LayoutTransform
from repro.primitives.base import ConvPrimitive


class CostModel(Protocol):
    """Anything that can price primitives and layout transformations.

    A model may additionally offer ``price_layer(primitives, scenario,
    threads)`` returning one ``(time, workspace, energy, accuracy)`` tuple per
    primitive (see :meth:`~repro.cost.analytical.AnalyticalCostModel.price_layer`).
    :func:`~repro.cost.tables.build_cost_tables` then prices each layer in one
    call and records energy and accuracy; without it those tables stay zero.
    """

    def primitive_cost(
        self, primitive: ConvPrimitive, scenario: ConvScenario, threads: int = 1
    ) -> float:
        """Execution time, in seconds, of ``primitive`` on ``scenario``."""
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
