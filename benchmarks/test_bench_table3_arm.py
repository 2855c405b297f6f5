"""E7 — Table 3: absolute single-inference times on the ARM Cortex-A57.

Same structure as Table 2 on the embedded platform.  The assertions include
the table's most striking feature: Caffe's GoogLeNet time exceeds even the
SUM2D baseline on this platform.
"""

import pytest

from benchmarks.conftest import emit
from repro.experiments.tables import format_absolute_table, run_absolute_time_table


@pytest.fixture(scope="module")
def table3_rows(arm):
    return run_absolute_time_table(arm)


def test_table3_absolute_times_arm(benchmark, arm, table3_rows):
    benchmark.pedantic(
        lambda: run_absolute_time_table(arm, networks=["alexnet"], thread_counts=(1,)),
        rounds=1,
        iterations=1,
    )
    emit(format_absolute_table(table3_rows, "Table 3 — single inference time on ARM Cortex-A57 (ms)"))

    for row in table3_rows:
        times = row.times_ms
        assert times["SUM2D"] > times["L.OPT"] > times["PBQP"]
        assert times["CAFFE"] > times["PBQP"]


def test_table3_caffe_slower_than_baseline_for_googlenet(table3_rows):
    single_threaded = {
        row.network: row.times_ms for row in table3_rows if row.mode == "S"
    }
    assert single_threaded["googlenet"]["CAFFE"] > single_threaded["googlenet"]["SUM2D"]
    # For AlexNet Caffe is roughly at parity with the baseline (2341 vs 2369 ms
    # in the paper); allow a generous band around 1.0.
    ratio = single_threaded["alexnet"]["CAFFE"] / single_threaded["alexnet"]["SUM2D"]
    assert 0.7 < ratio < 1.6


def test_table3_arm_slower_than_intel(table3_rows, intel):
    """The embedded platform is several times slower than the desktop part."""
    intel_rows = run_absolute_time_table(
        intel, networks=["alexnet"], thread_counts=(1,)
    )
    arm_alexnet = next(r for r in table3_rows if r.network == "alexnet" and r.mode == "S")
    intel_alexnet = intel_rows[0]
    assert arm_alexnet.times_ms["PBQP"] > 2.0 * intel_alexnet.times_ms["PBQP"]
