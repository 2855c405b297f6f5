"""Wall-clock profiler: measure primitives on the host machine.

Section 3.1 of the paper: "to estimate the cost of a specific assignment of a
primitive to a DNN layer, we profile the execution time of the primitive
operating on tensors of the size used in the layer ...  statically-measured
execution times on random input of the appropriate size give a very good
estimate of the actual execution time."

:class:`WallClockProfiler` does exactly that for the numpy-backed primitives
in this reproduction: it executes each primitive (and each direct layout
transformation) on random tensors of the right shape and records the best of
a few repetitions.  It implements the same
:class:`~repro.cost.model.CostModel` interface as the analytical model
(``price_layers``, ``transform_cost``, ``transform_energy``), so it fills cost
tables through the same path — used by the examples and integration tests on
host-sized scenarios.  It measures time only: its energy and accuracy entries
are zero.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.graph.scenario import ConvScenario
from repro.layouts.tensor import LayoutTensor
from repro.layouts.transforms import LayoutTransform
from repro.primitives.base import ConvPrimitive


class WallClockProfiler:
    """Measure primitive and transformation execution times on the host.

    Parameters
    ----------
    repetitions:
        Number of timed runs per measurement; the minimum is kept, which is
        the standard way to suppress scheduling noise for short kernels.
    warmup:
        Untimed runs executed first (to populate caches and JIT-like lazy
        initialization inside numpy).
    seed:
        Seed for the random input generator, so profiles are reproducible.

    The profiler has no ``platform``: measurements describe the host, which
    runs every variant, so its tables are not platform-gated.  Platform-less
    plans record ``platform: null``; the store names their shard after the
    model, ``"profiled"``.
    """

    name = "profiled"
    version = "1"

    def __init__(self, repetitions: int = 3, warmup: int = 1, seed: int = 0) -> None:
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if warmup < 0:
            raise ValueError("warmup must be >= 0")
        self.repetitions = repetitions
        self.warmup = warmup
        self._rng = np.random.default_rng(seed)
        self._primitive_cache: Dict[Tuple[str, ConvScenario, int], float] = {}
        self._transform_cache: Dict[Tuple[str, Tuple[int, int, int], int, int], float] = {}

    # -- measurements ------------------------------------------------------------

    def price_layers(
        self,
        layers: Sequence[Tuple[Sequence[ConvPrimitive], ConvScenario]],
        threads: int = 1,
    ) -> List[List[Tuple[float, float, float, float]]]:
        """Measured ``(time_s, workspace_bytes, 0.0, 0.0)`` of each primitive
        of each layer.

        Layers are measured in order and each layer's primitives in order,
        each once per ``(primitive, scenario, threads)``; repeats are served
        from the cache.  Workspace is the primitive's per-image scratch
        footprint at the scenario's precision.  The host is not an energy or
        accuracy model, so both stay zero, which the frontier reads as
        "objective not modelled".

        ``threads`` is accepted for interface compatibility; the numpy
        primitives run with whatever threading the host BLAS provides, so the
        parameter does not change the measurement.
        """
        priced = []
        for primitives, scenario in layers:
            itemsize = float(scenario.itemsize)
            priced.append(
                [
                    (
                        self._measure(primitive, scenario, threads),
                        itemsize * primitive.workspace_elements(scenario.per_image),
                        0.0,
                        0.0,
                    )
                    for primitive in primitives
                ]
            )
        return priced

    def _measure(self, primitive: ConvPrimitive, scenario: ConvScenario, threads: int) -> float:
        """Best-of-``repetitions`` time (seconds) of one primitive, cached."""
        key = (primitive.name, scenario, threads)
        if key in self._primitive_cache:
            return self._primitive_cache[key]
        kernel = self._rng.standard_normal(scenario.kernel_shape).astype(np.float32)
        if scenario.batch > 1:
            x = self._rng.standard_normal(scenario.batched_input_shape).astype(np.float32)
            tensor = LayoutTensor.from_nchw(x, primitive.input_layout)
        else:
            x = self._rng.standard_normal(scenario.input_shape).astype(np.float32)
            tensor = LayoutTensor.from_chw(x, primitive.input_layout)
        for _ in range(self.warmup):
            primitive.execute(tensor, kernel, scenario)
        best = float("inf")
        for _ in range(self.repetitions):
            start = time.perf_counter()
            primitive.execute(tensor, kernel, scenario)
            best = min(best, time.perf_counter() - start)
        self._primitive_cache[key] = best
        return best

    def transform_cost(
        self,
        transform: LayoutTransform,
        shape: Tuple[int, int, int],
        threads: int = 1,
        batch: int = 1,
        dtype: str = "fp32",
    ) -> float:
        """Measured execution time (seconds) of one direct layout transformation.

        ``shape`` is the per-image shape; with ``batch > 1`` the conversion
        is measured on a batched tensor (one call moving the whole batch).
        ``dtype`` is accepted for interface compatibility: the numpy
        transforms are measured on fp32 tensors regardless, so the profiled
        conversion time is a conservative (upper-bound) estimate for the
        narrow precisions.
        """
        key = (transform.name, shape, threads, batch)
        if key in self._transform_cache:
            return self._transform_cache[key]
        if batch > 1:
            x = self._rng.standard_normal((batch,) + shape).astype(np.float32)
            tensor = LayoutTensor.from_nchw(x, transform.source)
        else:
            x = self._rng.standard_normal(shape).astype(np.float32)
            tensor = LayoutTensor.from_chw(x, transform.source)
        for _ in range(self.warmup):
            transform.apply(tensor)
        best = float("inf")
        for _ in range(self.repetitions):
            start = time.perf_counter()
            transform.apply(tensor)
            best = min(best, time.perf_counter() - start)
        self._transform_cache[key] = best
        return best

    def transform_energy(
        self,
        transform: LayoutTransform,
        shape: Tuple[int, int, int],
        batch: int = 1,
        dtype: str = "fp32",
    ) -> float:
        """Energy is not measured on the host: always 0.0."""
        return 0.0
