"""Forward-pass benchmark: where a PBQP plan's execution time goes.

Section 4 puts the Winograd family at the centre of the selection, and the
2D Winograd form runs 13 of resnet18-64's 20 convolutions in its PBQP plan
on the Intel part.  This benchmark executes the intel-haswell fp32 PBQP plans of
the 64-px ResNet builds (base width 8, the sizes the zoo end-to-end tests
and the benchmark workloads execute) and records, per network:

* ``<net>_forward_ms`` — the median wall time of ``ROUNDS``
  ``Plan.execute()`` calls;
* ``<net>_winograd_ms`` — the median over the same calls of the summed
  ``measured_ms`` of the layers a Winograd primitive runs;

and ``blas_threads``, the ``OPENBLAS_NUM_THREADS`` the run had (0 for the
library's default pool).  The BLAS thread pool moves these times by up to
3x on a small host, so a figure means little without it.

It asserts only that each pass matches the network's all-SUM2D plan (every
primitive computes the same function) and sets no time bound.  Smoke mode
(``REPRO_BENCH_SMOKE=1``) keeps only resnet18.
"""

import os
import statistics

import pytest

from benchmarks.conftest import SMOKE, emit, record_metric
from repro.api import Session
from repro.models import build_resnet18, build_resnet50
from repro.primitives.base import PrimitiveFamily

NETWORKS = {
    "resnet18": lambda: build_resnet18(input_size=64, base_width=8),
    "resnet50": lambda: build_resnet50(input_size=64, base_width=8),
}
if SMOKE:
    NETWORKS = {"resnet18": NETWORKS["resnet18"]}

#: Forward passes timed per network; the recorded figures are their medians.
ROUNDS = 5

#: Largest fp32 output error, relative to the largest magnitude of the
#: all-SUM2D output.
TOLERANCE = 1e-5


def blas_threads() -> int:
    """``OPENBLAS_NUM_THREADS`` as a count, 0 when unset or not a count."""
    value = os.environ.get("OPENBLAS_NUM_THREADS", "").strip()
    return int(value) if value.isdigit() else 0


@pytest.fixture(scope="module")
def session():
    return Session()


@pytest.mark.parametrize("name", list(NETWORKS))
def test_forward_pass_time_by_family(benchmark, session, intel, name):
    network = NETWORKS[name]()
    plan = session.plan(network, intel, dtype="fp32")
    reference = session.plan(network, intel, strategy="sum2d", dtype="fp32")
    expected = reference.execute(seed=0).primary_output

    reports = []
    benchmark.pedantic(
        lambda: reports.append(plan.execute(seed=0)), rounds=ROUNDS, iterations=1
    )

    winograd = {p.name for p in session.library if p.family is PrimitiveFamily.WINOGRAD}
    winograd_ms = [
        sum(layer.measured_ms for layer in report.layers if layer.primitive in winograd)
        for report in reports
    ]
    forward_ms = statistics.median(benchmark.stats.stats.data) * 1e3
    record_metric("forward_pass", f"{name}_forward_ms", forward_ms)
    record_metric("forward_pass", f"{name}_winograd_ms", statistics.median(winograd_ms))
    record_metric("forward_pass", "blas_threads", blas_threads())
    emit(
        f"Forward pass of the {name}-64 PBQP plan on intel-haswell, fp32 "
        f"(median of {ROUNDS}, BLAS threads: {blas_threads() or 'library default'})\n"
        f"forward pass:     {forward_ms:8.2f} ms\n"
        f"Winograd layers:  {statistics.median(winograd_ms):8.2f} ms "
        f"({sum(layer.primitive in winograd for layer in reports[0].layers)} layers)"
    )

    for report in reports:
        error = abs(report.primary_output - expected).max()
        assert error <= TOLERANCE * abs(expected).max()
