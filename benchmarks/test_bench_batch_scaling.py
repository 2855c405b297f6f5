"""E11 — batch-scaling study: minibatching as one more integer parameter.

The paper's formulation is batch-1 (latency-sensitive inference) but notes
that minibatching is just one more parameter.  With the batch threaded
through scenarios, cost model, store and executor, this benchmark sweeps
batch sizes on both modelled platforms and encodes the headline findings:

* re-selecting at the deployment batch is never worse than replaying the
  batch-1 plan (PBQP optimality over the batched cost tables), and on the
  full network set it is *strictly* better at batch 16 on both platforms —
  the batch amortizes transform/GEMM setup, so the optimal selection drifts
  toward those families;
* the per-image PBQP cost never increases with the batch (amortization).

Smoke mode (``REPRO_BENCH_SMOKE=1``) trims the sweep to AlexNet and the
strict-divergence assertion is skipped (AlexNet's large layers amortize
per-call setup already at batch 1 on the Intel part).
"""

import pytest

from benchmarks.conftest import SMOKE, emit, smoke_networks
from repro.api import Session
from repro.experiments.scaling import run_batch_scaling

#: GoogLeNet's many small layers are where batch amortization bites; AlexNet
#: is the smoke-mode stand-in.
NETWORKS = smoke_networks(["googlenet"], tiny=("alexnet",)) or ["alexnet"]

BATCHES = (1, 4, 16) if SMOKE else (1, 4, 16, 64)


@pytest.fixture(scope="module")
def session():
    return Session()


@pytest.fixture(scope="module")
def sweeps(session, intel, arm):
    return {
        platform.name: {
            network: run_batch_scaling(
                network, platform, batches=BATCHES, session=session
            )
            for network in NETWORKS
        }
        for platform in (intel, arm)
    }


def test_batch16_reselection_beats_replayed_batch1_plan(
    benchmark, session, intel, sweeps
):
    benchmark.pedantic(
        lambda: run_batch_scaling(
            NETWORKS[0], intel, batches=(16,), session=session
        ),
        rounds=1,
        iterations=1,
    )
    strict_wins = 0
    for platform_name, by_network in sweeps.items():
        for network, result in by_network.items():
            emit(result.format())
            point = result.point(16)
            # Optimality over the batched tables: replaying batch-1 choices is
            # one feasible assignment, so fresh selection can never lose.
            assert point.pbqp_ms <= point.replayed_ms * (1 + 1e-9), (
                platform_name,
                network,
            )
            if point.pbqp_ms < point.replayed_ms * (1 - 1e-9):
                strict_wins += 1
                assert point.selection_changes, (platform_name, network)
    if not SMOKE:
        # Full mode: the batch-16 selection strictly beats the replayed
        # batch-1 plan on BOTH platforms.
        assert strict_wins == 2 * len(NETWORKS), "expected divergence at batch 16"


def test_per_image_cost_never_increases_with_batch(sweeps):
    for platform_name, by_network in sweeps.items():
        for network, result in by_network.items():
            per_image = [point.pbqp_per_image_ms for point in result.points]
            for smaller, larger in zip(per_image, per_image[1:]):
                assert larger <= smaller * (1 + 1e-9), (platform_name, network)


def test_batched_selection_amortizes_setup(sweeps):
    """Total cost grows with the batch but strictly sublinearly."""
    for platform_name, by_network in sweeps.items():
        for network, result in by_network.items():
            base = result.point(1)
            for point in result.points:
                if point.batch == 1:
                    continue
                assert point.pbqp_ms > base.pbqp_ms, (platform_name, network)
                assert point.pbqp_ms < point.batch * base.pbqp_ms, (
                    platform_name,
                    network,
                )
