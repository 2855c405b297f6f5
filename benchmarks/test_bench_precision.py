"""E12 — precision-scaling study: selecting under quantization vs quantizing.

With dtype threaded through scenarios, primitives, cost model, store and
frontier, this benchmark sweeps precisions on the lane-packing platforms and
encodes the headline findings:

* re-selecting at the deployment precision is never worse than replaying the
  quantized fp32 plan (PBQP optimality over the precision-priced tables),
  and on the full network set the int8 selection *strictly* beats the replay
  on the ``dotprod`` ARM part — the 4x lane packing reorders the families,
  so the fp32 optimum is no longer the int8 optimum;
* the multi-precision frontier spans the accuracy axis: its min-time point
  is an int8 plan, its max-accuracy point the (zero-loss) fp32 plan.

Each precision's PBQP time and replay advantage land in
``BENCH_precision.json`` under the trajectory's dtype dimension
(``pbqp_ms@int8`` next to the comparable fp32 ``pbqp_ms``).

Every recorded number is a *modelled* time from the analytical cost model,
not a wall-clock measurement: it moves only when pricing or selection
changes, never with the speed of the machine or of the code.  Across its
first 16 recorded runs the file held just two distinct metric sets, and
they changed once, at commit ``e9e0255``, when pricing changed.  Read it as
a record of modelled results, not as a timing trajectory.

Smoke mode (``REPRO_BENCH_SMOKE=1``) trims the sweep to AlexNet and skips
the strict-divergence assertion (AlexNet's few large layers sit firmly in
the GEMM families at every precision on the AVX-512 part).
"""

import pytest

from benchmarks.conftest import SMOKE, emit, record_metric, smoke_networks
from repro.api import Session
from repro.cost.platform import PLATFORMS
from repro.experiments.scaling import (
    frontier_endpoints,
    run_precision_scaling,
)

#: GoogLeNet's mixed layer population is where precision-driven re-selection
#: bites; AlexNet is the smoke-mode stand-in.
NETWORKS = smoke_networks(["googlenet"], tiny=("alexnet",)) or ["alexnet"]

#: The platforms with narrow-precision lane packing (vnni / dotprod).
PLATFORM_NAMES = ("avx512-server", "arm-cortex-a57")


@pytest.fixture(scope="module")
def session():
    return Session()


@pytest.fixture(scope="module")
def sweeps(session):
    return {
        name: {
            network: run_precision_scaling(
                network, PLATFORMS[name], session=session
            )
            for network in NETWORKS
        }
        for name in PLATFORM_NAMES
    }


def test_quantized_reselection_beats_quantized_replay(benchmark, session, sweeps):
    benchmark.pedantic(
        lambda: run_precision_scaling(
            NETWORKS[0], PLATFORMS["avx512-server"], dtypes=("int8",), session=session
        ),
        rounds=1,
        iterations=1,
    )
    strict_wins = 0
    for platform_name, by_network in sweeps.items():
        for network, result in by_network.items():
            emit(result.format())
            for point in result.points:
                # Optimality over the precision-priced tables: the quantized
                # fp32 plan is one feasible assignment, so fresh selection
                # can never lose to it.
                assert point.pbqp_ms <= point.replayed_ms * (1 + 1e-9), (
                    platform_name,
                    network,
                    point.dtype,
                )
                record_metric(
                    "precision", "pbqp_ms", point.pbqp_ms, dtype=point.dtype
                )
                record_metric(
                    "precision", "replay_advantage_x", point.advantage, dtype=point.dtype
                )
                if point.pbqp_ms < point.replayed_ms * (1 - 1e-9):
                    strict_wins += 1
                    assert point.selection_changes, (platform_name, network)
    if not SMOKE:
        # Full mode: selecting under int8 strictly beats quantizing the fp32
        # plan on both lane-packing platforms.
        assert strict_wins >= len(PLATFORM_NAMES), "expected divergence under int8"


def test_narrow_precisions_never_cost_more(sweeps):
    """fp16/int8 tables price every plan at or below its fp32 cost."""
    for platform_name, by_network in sweeps.items():
        for network, result in by_network.items():
            base = result.point("fp32")
            for point in result.points:
                assert point.pbqp_ms <= base.pbqp_ms * (1 + 1e-9), (
                    platform_name,
                    network,
                    point.dtype,
                )


def test_frontier_spans_the_precision_axis(session):
    frontier = session.plan_frontier(NETWORKS[0], "avx512-server")
    emit(frontier.format())
    fastest_dtype, most_accurate_dtype = frontier_endpoints(frontier)
    assert fastest_dtype == "int8"
    assert most_accurate_dtype == "fp32"
    fastest = min(frontier.points, key=lambda point: point.vector.time_ms)
    record_metric("precision", "frontier_min_time_ms", fastest.vector.time_ms, dtype="int8")
