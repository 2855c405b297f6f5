"""Peak-workspace accounting against real reference-execution allocations.

The multi-objective frontier trades plans off by ``peak_workspace_bytes`` —
the modelled scratch footprint of each primitive (``4.0 *
workspace_elements``, fp32).  These tests pin that model to reality: for
every primitive family, and for whole plans whose edges carry layout
conversion chains, the temporary allocations of the numpy reference
execution (measured with :mod:`tracemalloc`) must stay within the modelled
bound after accounting for the reference dtypes.

The reference primitives compute in float64 (complex128 for the fft family),
while the model prices fp32 buffers — but the fft model already counts a
complex element as two real elements, so a uniform widening factor of two
covers every family.  On top of the workspace itself the reference path
allocates dtype-widened copies of the input (original plus padded), kernel
and output; those are covered by an explicit I/O allowance, not by slack.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.api import Session
from repro.core.selector import PBQPSelector
from repro.core.strategies import applicable_strategies, get_strategy
from repro.graph.scenario import ConvScenario
from repro.primitives.base import PrimitiveFamily, _pad_scenario
from repro.primitives.winograd import Winograd1DPrimitive
from repro.runtime import NetworkExecutor

#: Reference execution computes in float64 / complex128: twice the modelled
#: fp32 footprint (the fft model already doubles complex element counts).
DTYPE_WIDENING = 2.0

#: Fixed envelope for allocator bookkeeping and small numpy temporaries.
SLACK_BYTES = 256 * 1024


def _measure_peak(function) -> int:
    """Peak traced allocation of one call, in bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        function()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


#: One representative scenario every family supports (unit stride for kn2).
SCENARIO = ConvScenario(c=16, h=32, w=32, stride=1, k=3, m=16, padding=1)


def _run_modelled_form(primitive, x, kernel):
    """Run the form of ``primitive`` whose scratch its workspace model describes.

    The 1D Winograd model describes its row-streamed form; the default path
    trades memory for numpy vectorization, so the footprint is measured on
    the streamed path, padded copy included (and the two paths are asserted
    identical below).
    """
    if isinstance(primitive, Winograd1DPrimitive):
        padded, inner = _pad_scenario(x, SCENARIO)
        return primitive._compute_streamed(padded, kernel, inner)
    return primitive._run_grouped(x, kernel, SCENARIO)


def _family_members(library, family):
    members = sorted(
        (p for p in library if p.family is family and p.supports(SCENARIO)),
        key=lambda p: p.name,
    )
    assert members, f"no {family.value} primitive supports the test scenario"
    return members


class TestPrimitiveWorkspaceBounds:
    """Modelled workspace bounds the reference temporaries, family by family."""

    @pytest.mark.parametrize("family", list(PrimitiveFamily), ids=lambda f: f.value)
    def test_family_reference_execution_within_modelled_workspace(
        self, library, family, rng
    ):
        x = rng.standard_normal(SCENARIO.input_shape).astype(np.float32)
        kernel = rng.standard_normal(SCENARIO.kernel_shape).astype(np.float32)

        # The widened input (original and padded copies), kernel and output
        # buffers the reference path materializes around the workspace.
        element = 8  # float64
        io_allowance = element * (
            2 * SCENARIO.input_elements()
            + SCENARIO.kernel_elements()
            + 2 * SCENARIO.output_elements()
        )

        for primitive in _family_members(library, family):
            modelled = 4.0 * primitive.workspace_elements(SCENARIO)
            peak = _measure_peak(lambda: _run_modelled_form(primitive, x, kernel))
            bound = io_allowance + DTYPE_WIDENING * modelled + SLACK_BYTES
            assert peak <= bound, (
                f"{primitive.name}: reference execution peaked at {peak} bytes, "
                f"modelled workspace {modelled:.0f} bytes allows only {bound:.0f}"
            )

    def test_winograd_streamed_path_matches_vectorized(self, library, rng):
        """The memory-faithful streamed 1D form computes the identical result."""
        x = rng.standard_normal(SCENARIO.input_shape).astype(np.float32)
        kernel = rng.standard_normal(SCENARIO.kernel_shape).astype(np.float32)
        padded, inner = _pad_scenario(x, SCENARIO)
        checked = 0
        for primitive in _family_members(library, PrimitiveFamily.WINOGRAD):
            if not isinstance(primitive, Winograd1DPrimitive):
                continue
            vectorized = primitive._compute(padded, kernel, inner)
            streamed = primitive._compute_streamed(padded, kernel, inner)
            np.testing.assert_allclose(streamed, vectorized, rtol=1e-10, atol=1e-10)
            checked += 1
        assert checked > 0

    def test_workspace_magnitudes_support_budget_flips(self, library):
        """The per-family footprint ordering behind cap-driven family flips."""
        by_family = {
            family: min(
                p.workspace_elements(SCENARIO)
                for p in library
                if p.family is family and p.supports(SCENARIO)
            )
            for family in PrimitiveFamily
        }
        assert by_family[PrimitiveFamily.DIRECT] == 0.0
        assert by_family[PrimitiveFamily.SUM2D] == 0.0
        # The GEMM/transform families all need real scratch, with the patch
        # matrix the largest — so tightening a workspace cap drives selection
        # away from im2/fft toward direct and the 1D Winograd forms.
        for heavy in (PrimitiveFamily.IM2, PrimitiveFamily.FFT):
            assert by_family[heavy] > by_family[PrimitiveFamily.WINOGRAD] > 0.0


class TestPlanWorkspaceAccounting:
    """Whole-plan accounting: decisions, conversions and executed footprint."""

    @pytest.fixture(scope="class")
    def context(self, tiny_network_session, library, dt_graph, intel):
        return Session(library=library, dt_graph=dt_graph).context_for(tiny_network_session, intel)

    def test_peak_is_max_over_layer_decisions(self, context):
        plan = PBQPSelector().select(context)
        workspaces = [
            context.tables.primitive_workspace(name, decision.primitive)
            for name, decision in plan.layer_decisions.items()
            if decision.primitive is not None
        ]
        assert plan.peak_workspace_bytes == max(workspaces)
        for name, decision in plan.layer_decisions.items():
            if decision.primitive is not None:
                assert decision.workspace_bytes == context.tables.primitive_workspace(
                    name, decision.primitive
                )

    @pytest.mark.parametrize("strategy", ["direct", "im2", "kn2", "winograd", "fft"])
    def test_executed_plan_within_modelled_peak(
        self, context, library, strategy, rng
    ):
        """Family-forced plans (with their conversion chains) stay in bounds."""
        chosen = get_strategy(strategy)
        if chosen not in applicable_strategies(context):
            pytest.skip(f"{strategy} does not apply here")
        plan = chosen.build_plan(context)

        # Everything the forward pass materializes besides primitive
        # workspace: per-layer activations (original and dtype-widened
        # copies, padded where applicable) and the buffers produced by each
        # layout-conversion hop along the plan's edges.
        element = 8
        activation_allowance = element * 4 * sum(
            int(np.prod(shape)) for shape in context.tables.shapes.values()
        )
        conversion_allowance = element * 2 * sum(
            len(edge.chain) * int(np.prod(context.tables.shapes[edge.producer]))
            for edge in plan.edge_decisions
            if edge.chain is not None
        )

        executor = NetworkExecutor(
            context.network, plan, library, seed=0
        )
        x = rng.standard_normal((3, 32, 32)).astype(np.float32)
        peak = _measure_peak(lambda: executor.run(x))
        bound = (
            activation_allowance
            + conversion_allowance
            + DTYPE_WIDENING * plan.peak_workspace_bytes
            + SLACK_BYTES
        )
        assert peak <= bound, (
            f"strategy {strategy}: executed peak {peak} bytes exceeds "
            f"modelled envelope {bound:.0f} (peak workspace "
            f"{plan.peak_workspace_bytes:.0f})"
        )

    def test_peak_survives_serialization(self, context, dt_graph):
        from repro.cost.serialize import plan_from_dict, plan_to_dict

        plan = PBQPSelector().select(context)
        document = plan_to_dict(plan)
        loaded = plan_from_dict(document, dt_graph)
        assert loaded.peak_workspace_bytes == plan.peak_workspace_bytes
        assert loaded.energy_proxy_j == pytest.approx(plan.energy_proxy_j)
        assert loaded.cost_vector().as_tuple() == pytest.approx(
            plan.cost_vector().as_tuple()
        )
