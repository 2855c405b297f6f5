"""Session cache benchmark: "profile once, select many" in numbers.

Section 4 of the paper ships profiled cost tables with the model so selection
is cheap at deployment time.  The :class:`repro.api.Session` realizes that
workflow in-process: the first ``plan`` for a (network, platform, threads)
key profiles the cost tables, every later call reuses them.  The benchmark
measures a cold plan against warm plans of GoogLeNet (the largest
instance) and asserts the cache is actually doing the work.  The metrics keep
their ``engine_cache`` names so the ``BENCH_engine_cache.json`` trajectory
continues.  ``cold_tables_ms`` is the median of ``TABLE_ROUNDS``
:func:`~repro.cost.tables.build_cost_tables` calls for the same network on
intel-haswell: the part of a cold plan that profiling is.  ``warm_encode_ms``
is the median of ``ENCODE_ROUNDS`` :meth:`~repro.core.selector.PBQPSelector.build_pbqp`
calls on the warm context: what a warm plan pays to encode.  ``warm_solve_ms``
is the median of ``SOLVE_ROUNDS`` :meth:`~repro.pbqp.solver.PBQPSolver.solve`
calls on the warm context's graph: what a warm plan pays to solve.
"""

import statistics
import time

from benchmarks.conftest import SMOKE, emit, record_metric
from repro.api import Session
from repro.core.selector import PBQPSelector
from repro.cost.analytical import AnalyticalCostModel
from repro.cost.tables import build_cost_tables
from repro.models import build_model

MODEL = "alexnet" if SMOKE else "googlenet"

#: Table builds timed; ``cold_tables_ms`` is their median.
TABLE_ROUNDS = 5
#: Warm encodes timed; ``warm_encode_ms`` is their median.
ENCODE_ROUNDS = 5
#: Warm solves timed; ``warm_solve_ms`` is their median.
SOLVE_ROUNDS = 5


def test_engine_cache_reuses_cost_tables(benchmark, library, intel):
    session = Session(library=library)

    start = time.perf_counter()
    cold = session.plan(MODEL, intel, strategy="pbqp", verify=False)
    cold_seconds = time.perf_counter() - start

    assert not cold.from_cache
    assert session.cache_info().misses == 1

    warm_result = benchmark.pedantic(
        lambda: session.plan(MODEL, intel, strategy="pbqp", verify=False), rounds=5, iterations=1
    )
    assert warm_result.from_cache
    info = session.cache_info()
    assert info.contexts == 1 and info.misses == 1 and info.hits >= 5

    warm_seconds = benchmark.stats.stats.mean
    network = build_model(MODEL)
    cost_model = AnalyticalCostModel(intel)
    table_seconds = []
    for _ in range(TABLE_ROUNDS):
        start = time.perf_counter()
        build_cost_tables(network, session.library, session.dt_graph, cost_model)
        table_seconds.append(time.perf_counter() - start)
    cold_tables_seconds = statistics.median(table_seconds)
    context = session.context_for(MODEL, intel)
    selector = PBQPSelector()
    encode_seconds = []
    for _ in range(ENCODE_ROUNDS):
        start = time.perf_counter()
        selector.build_pbqp(context)
        encode_seconds.append(time.perf_counter() - start)
    warm_encode_seconds = statistics.median(encode_seconds)
    graph, _ = selector.build_pbqp(context)
    solve_seconds = []
    for _ in range(SOLVE_ROUNDS):
        start = time.perf_counter()
        selector.solver.solve(graph)
        solve_seconds.append(time.perf_counter() - start)
    warm_solve_seconds = statistics.median(solve_seconds)
    record_metric("engine_cache", "cold_select_ms", cold_seconds * 1e3)
    record_metric("engine_cache", "cold_tables_ms", cold_tables_seconds * 1e3)
    record_metric("engine_cache", "warm_select_ms", warm_seconds * 1e3)
    record_metric("engine_cache", "warm_encode_ms", warm_encode_seconds * 1e3)
    record_metric("engine_cache", "warm_solve_ms", warm_solve_seconds * 1e3)
    record_metric("engine_cache", "warm_speedup_x", cold_seconds / warm_seconds)
    emit(
        "Session context cache — profile once, select many\n"
        f"cold select (profiling + solve): {cold_seconds * 1e3:10.2f} ms\n"
        f"warm select (cached tables):     {warm_seconds * 1e3:10.2f} ms\n"
        f"cost-table build (median of {TABLE_ROUNDS}): {cold_tables_seconds * 1e3:6.2f} ms\n"
        f"warm encode (median of {ENCODE_ROUNDS}):     {warm_encode_seconds * 1e3:6.2f} ms\n"
        f"warm solve (median of {SOLVE_ROUNDS}):      {warm_solve_seconds * 1e3:6.2f} ms\n"
        f"speedup from cached cost tables: {cold_seconds / warm_seconds:10.2f}x\n"
        f"cache: {info.contexts} context(s), {info.hits} hits, {info.misses} miss(es)"
    )
    # Re-profiling dominates a cold query; a warm query must be clearly faster.
    assert warm_seconds < cold_seconds


def test_engine_compare_profiles_once(library, intel):
    session = Session(library=library)
    results = session.compare(MODEL, intel, threads=4)
    # compare() profiles the threads=4 context exactly once, plus the
    # single-threaded SUM2D baseline's; every per-strategy select then hits
    # the cache.
    assert session.cache_info().misses == 2
    assert all(r.from_cache for r in results)
    assert results.best.strategy == "pbqp"
