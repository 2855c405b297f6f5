"""E6 — Table 2: absolute single-inference times on the Intel Core i5-4570.

Regenerates the SUM2D / L.OPT / PBQP / CAFFE columns for AlexNet and GoogLeNet
under single- and multi-threaded execution.  Absolute milliseconds are not
expected to match the paper (the platform is modelled, not measured); the
assertions check the orderings the table demonstrates.
"""

import pytest

from benchmarks.conftest import emit
from repro.experiments.tables import format_absolute_table, run_absolute_time_table


@pytest.fixture(scope="module")
def table2_rows(intel):
    return run_absolute_time_table(intel)


def test_table2_absolute_times_intel(benchmark, intel, table2_rows):
    benchmark.pedantic(
        lambda: run_absolute_time_table(intel, networks=["alexnet"], thread_counts=(1,)),
        rounds=1,
        iterations=1,
    )
    emit(format_absolute_table(table2_rows, "Table 2 — single inference time on Intel Core i5-4570 (ms)"))

    for row in table2_rows:
        times = row.times_ms
        # The table's consistent ordering: SUM2D slowest of the non-framework
        # strategies, L.OPT in between, PBQP fastest.
        assert times["SUM2D"] > times["L.OPT"] > times["PBQP"]
        # Caffe never beats the PBQP selection.
        assert times["CAFFE"] > times["PBQP"]


def test_table2_multithreading_helps_pbqp_more_than_caffe(table2_rows):
    by_key = {(row.network, row.mode): row.times_ms for row in table2_rows}
    for network in ("alexnet", "googlenet"):
        pbqp_scaling = by_key[(network, "S")]["PBQP"] / by_key[(network, "M")]["PBQP"]
        caffe_scaling = by_key[(network, "S")]["CAFFE"] / by_key[(network, "M")]["CAFFE"]
        assert pbqp_scaling > caffe_scaling
