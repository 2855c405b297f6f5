"""Property-style cost-model invariants, enforced on every registered platform.

These are the structural guarantees the selection machinery leans on; each is
checked against *every* platform in the registry, so a newly registered
backend that violates one fails here instead of producing silently absurd
selections:

* per-image primitive cost is non-increasing in the batch (fixed per-call
  setup amortizes; nothing gets more expensive per image);
* primitive cost is monotone in the arithmetic volume for a fixed variant
  (more MACs never price cheaper);
* layout-transformation cost scales with the tensor bytes moved (monotone in
  the shape, batch-sublinear due to the fixed dispatch);
* ``supports()`` is consistent with pricing — cost tables never price a
  variant the platform declines, and price every variant it offers;
* replaying a plan selected on one platform onto another never beats the
  target platform's own PBQP re-selection (PBQP optimality over the target's
  tables).

The session fixture honours ``REPRO_PLATFORM_CACHE`` (a cost-store directory)
so the CI platform-grid job can persist tables between runs.
"""

import os

import pytest

from repro.api import Session
from repro.core.legalize import replay_plan
from repro.core.selector import PBQPSelector
from repro.cost.analytical import AnalyticalCostModel
from repro.cost.platform import PLATFORMS, list_platforms
from repro.graph.scenario import ConvScenario
from repro.layouts.transforms import default_transform_library
from tests.conftest import build_tiny_network, layer_rows

#: Snapshot of the built-in zoo at collection time (tests registering
#: throwaway platforms elsewhere must clean up after themselves).
ALL_PLATFORMS = list_platforms()

#: Scenario shapes exercising the interesting regimes: small/large channel
#: counts, strided, 5x5 and depthwise.
SCENARIOS = [
    ConvScenario(c=16, h=28, w=28, stride=1, k=3, m=32, padding=1),
    ConvScenario(c=64, h=14, w=14, stride=1, k=3, m=64, padding=1),
    ConvScenario(c=8, h=56, w=56, stride=2, k=5, m=16, padding=2),
    ConvScenario(c=32, h=28, w=28, stride=1, k=3, m=32, padding=1, groups=32),
]


@pytest.fixture(scope="module", params=ALL_PLATFORMS)
def platform(request):
    return PLATFORMS[request.param]


@pytest.fixture(scope="module")
def cost_model(platform):
    return AnalyticalCostModel(platform)


@pytest.fixture(scope="module")
def session():
    """A session shared by the cross-platform tests.

    ``REPRO_PLATFORM_CACHE`` (set by the CI platform-grid job) points it at a
    persistent cost store, so warm CI runs skip table building entirely.
    """
    return Session(cache_dir=os.environ.get("REPRO_PLATFORM_CACHE") or None)


def applicable(library, scenario, platform):
    primitives = library.applicable(scenario, platform=platform)
    assert primitives, f"no primitive supports [{scenario.describe()}] on {platform}"
    return primitives


class TestPrimitiveCostInvariants:
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.describe())
    def test_per_image_cost_non_increasing_in_batch(
        self, library, platform, cost_model, scenario
    ):
        for primitive in applicable(library, scenario, platform):
            previous = layer_rows(cost_model, [primitive], scenario)[0][0]
            for batch in (2, 4, 16):
                per_image = (
                    layer_rows(cost_model, [primitive], scenario.with_batch(batch))[0][0]
                    / batch
                )
                assert per_image <= previous * (1 + 1e-9), (
                    f"{primitive.name} on {platform}: batch {batch} per-image "
                    f"cost {per_image} exceeds smaller-batch cost {previous}"
                )
                previous = per_image

    def test_cost_monotone_in_macs_for_fixed_variant(
        self, library, platform, cost_model
    ):
        base = dict(c=16, h=28, w=28, stride=1, k=3, padding=1)
        scenarios = [ConvScenario(m=m, **base) for m in (4, 8, 16, 32, 64)]
        for primitive in applicable(library, scenarios[0], platform):
            costs = [
                layer_rows(cost_model, [primitive], scenario)[0][0]
                for scenario in scenarios
                if primitive.supports(scenario, platform=platform)
            ]
            for cheaper, dearer in zip(costs, costs[1:]):
                assert dearer >= cheaper * (1 - 1e-9), (
                    f"{primitive.name} on {platform}: more MACs priced cheaper "
                    f"({dearer} < {cheaper})"
                )

    def test_costs_positive_and_finite(self, library, platform, cost_model):
        import math

        for scenario in SCENARIOS:
            for primitive in applicable(library, scenario, platform):
                cost = layer_rows(cost_model, [primitive], scenario)[0][0]
                assert math.isfinite(cost) and cost > 0


class TestTransformCostInvariants:
    def test_cost_scales_with_tensor_bytes(self, platform, cost_model):
        for transform in default_transform_library():
            small = cost_model.transform_cost(transform, (8, 16, 16))
            doubled_c = cost_model.transform_cost(transform, (16, 16, 16))
            doubled_hw = cost_model.transform_cost(transform, (8, 32, 16))
            assert doubled_c > small and doubled_hw > small

    def test_batch_scales_traffic_not_dispatch(self, platform, cost_model):
        transform = default_transform_library()[0]
        shape = (16, 28, 28)
        one = cost_model.transform_cost(transform, shape, batch=1)
        for batch in (2, 8, 32):
            batched = cost_model.transform_cost(transform, shape, batch=batch)
            # More images cost more, but the per-call dispatch is paid once,
            # so the total stays strictly below batch * single-image cost.
            assert one < batched < batch * one


class TestSupportsPricingConsistency:
    def test_tables_price_exactly_the_supported_variants(
        self, library, platform, session
    ):
        context = session.context_for(build_tiny_network(), platform.name)
        for layer, scenario in context.tables.scenarios.items():
            priced = set(context.tables.node_costs[layer])
            supported = {
                p.name for p in library.applicable(scenario, platform=platform)
            }
            assert priced == supported, (
                f"{layer} on {platform}: priced {sorted(priced - supported)} "
                f"unsupported / missing {sorted(supported - priced)}"
            )

    def test_execute_rejects_declined_scenarios(self, library, platform):
        # Declining is platform-sided: the numpy implementation itself still
        # computes everything it structurally can, so capability declines
        # must come from supports(scenario, platform), which is what pricing
        # uses.  Spot-check that a declined (variant, platform) pair is
        # genuinely absent from that platform's applicable set.
        scenario = SCENARIOS[0]
        for primitive in library:
            if primitive.supports(scenario) and not primitive.supports(
                scenario, platform=platform
            ):
                assert primitive not in library.applicable(
                    scenario, platform=platform
                )


class TestCrossPlatformReplay:
    def test_replay_never_beats_native_reselection(self, session):
        """A plan tuned for platform A, re-priced on B, never beats B's own PBQP."""
        network = build_tiny_network()
        contexts = {
            name: session.context_for(network, name) for name in ALL_PLATFORMS
        }
        native = {
            name: PBQPSelector().select(context)
            for name, context in contexts.items()
        }
        replays = 0
        for source in ALL_PLATFORMS:
            for target in ALL_PLATFORMS:
                if source == target:
                    continue
                try:
                    replayed = replay_plan(
                        contexts[target], native[source], strategy="replay"
                    )
                except KeyError:
                    # The source plan uses a variant the target platform
                    # declines (e.g. 1D Winograd on the SIMT part): the
                    # replay is impossible, which trivially cannot beat
                    # native re-selection.
                    continue
                replays += 1
                assert replayed.total_cost >= native[target].total_cost * (1 - 1e-9), (
                    f"replaying {source} plan on {target} beat native selection"
                )
        assert replays > 0
