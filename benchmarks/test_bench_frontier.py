"""Frontier benchmark: Pareto-front construction and the memory-budget story.

The multi-objective layer answers the deployment question the scalar solver
cannot: what does a peak-workspace budget cost, and which layers flip family
to fit?  This benchmark builds the frontier for the paper's two DAG-shaped
networks, reports the budget sweep across the platform zoo
(:mod:`repro.experiments.memory_budget`), and records the frontier build
time and its serialization time in the ``BENCH_frontier.json`` trajectory.

Headline assertions (the issue's acceptance criteria, at full size):

* the frontier's min-time point is exactly the scalar PBQP plan;
* on both AlexNet and GoogLeNet a tightened workspace budget flips at least
  one layer from an im2col/FFT-family pick to a low-scratch family on both
  of the paper's platforms.
"""

import statistics
import time

import pytest

from benchmarks.conftest import SMOKE, emit, record_metric, smoke_networks
from repro.api import Session
from repro.experiments.memory_budget import run_memory_budget

NETWORKS = smoke_networks(["alexnet", "googlenet"])

#: The paper's two platforms: where the budget flips must appear.
PLATFORM_PAIR = ("intel-haswell", "arm-cortex-a57")

HEAVY = {"im2", "fft"}


@pytest.fixture(scope="module")
def session(library):
    return Session(library=library)


def test_frontier_build_time_and_min_time_point(session, benchmark):
    """Frontier construction cost, with the min-time == PBQP invariant.

    The frontier is pinned to fp32: the invariant is *per precision* (the
    multi-precision front's min-time point is the int8 PBQP plan instead —
    covered by ``test_bench_precision.py`` and ``tests/test_precision.py``).
    """
    model = NETWORKS[-1]  # the largest instance in this mode
    frontier = benchmark.pedantic(
        lambda: session.plan_frontier(model, "intel-haswell", dtypes=("fp32",)),
        rounds=3,
        iterations=1,
    )
    scalar = session.plan(model, "intel-haswell", verify=False).network_plan
    best = frontier.min_time()
    assert best.vector.time_ms == pytest.approx(scalar.total_ms)
    assert best.plan.conv_selections() == scalar.conv_selections()

    build_seconds = benchmark.stats.stats.mean
    to_json_seconds = []
    for _ in range(5):
        start = time.perf_counter()
        frontier.to_json()
        to_json_seconds.append(time.perf_counter() - start)
    to_json_ms = statistics.median(to_json_seconds) * 1e3
    record_metric("frontier", "build_ms", build_seconds * 1e3)
    record_metric("frontier", "to_json_ms", to_json_ms)
    record_metric("frontier", "points", len(frontier))
    record_metric("frontier", "candidates", frontier.candidates_evaluated)
    emit(
        f"Frontier build — {model} on intel-haswell\n"
        f"build time (all PBQP solves): {build_seconds * 1e3:10.2f} ms\n"
        f"to_json (median of 5):        {to_json_ms:10.2f} ms\n"
        f"{frontier.format()}"
    )


def test_memory_budget_sweep_flips_families(session):
    """The cap-driven family flips across the platform zoo (Figure-4 inverted)."""
    platforms = list(PLATFORM_PAIR) if SMOKE else None  # None = the whole zoo
    sweep = run_memory_budget(
        networks=NETWORKS, platform_names=platforms, session=session
    )
    emit(sweep.format())

    library = session.library
    for network in sweep.networks:
        for platform in PLATFORM_PAIR:
            base = sweep.baselines[(network, platform)]
            base_families = {
                layer: library.get(primitive).family.value
                for layer, primitive in base.conv_selections().items()
            }
            cell = sweep.cell(network, platform, 0.1)
            assert cell.feasible
            assert cell.plan.peak_workspace_bytes <= cell.cap_bytes
            flipped_from_heavy = [
                layer
                for layer, (before, after) in cell.flips.items()
                if before in HEAVY and after not in HEAVY
            ]
            assert flipped_from_heavy or not (HEAVY & set(base_families.values())), (
                f"{network} on {platform}: a 10% workspace budget flipped no "
                "layer away from the scratch-hungry families"
            )


def test_frontier_is_deterministic(session):
    """Byte-identical serialization across builds under a fixed seed."""
    first = session.plan_frontier(NETWORKS[0], "arm-cortex-a57", seed=7)
    second = session.plan_frontier(NETWORKS[0], "arm-cortex-a57", seed=7)
    assert first.to_json() == second.to_json()
