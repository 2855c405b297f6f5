"""Warm-start benchmark: a fresh process with a populated CostStore skips profiling.

Section 4 of the paper ships profiled cost tables with the model so selection
is cheap at deployment time.  The :class:`repro.cost.store.CostStore` makes
that persistent: the first session profiles and writes the tables to disk;
every later *session* (standing in for a fresh process — no in-memory state
survives) loads them instead of re-profiling.  The benchmark asserts the warm
start performs **zero** profiling and reports the warm/cold ratio.

Both sides are measured the same way: the median of ``ROUNDS`` starts.  Each
cold start plans into its own empty store directory; each warm start is a
brand-new session over the last cold start's store.
"""

import statistics
import time

import repro.api as api_module
from benchmarks.conftest import SMOKE, emit, record_metric
from repro.api import Session

MODEL = "alexnet" if SMOKE else "googlenet"

#: Starts timed on each side; the recorded figures are their medians.
ROUNDS = 5


def test_store_warm_start_skips_profiling(benchmark, library, intel, tmp_path, monkeypatch):
    builds = []
    original = api_module.build_cost_tables

    def counting_build(*args, **kwargs):
        builds.append(kwargs.get("threads"))
        return original(*args, **kwargs)

    monkeypatch.setattr(api_module, "build_cost_tables", counting_build)

    cold_seconds = []
    for round_index in range(ROUNDS):
        store_dir = tmp_path / f"cold-{round_index}"
        start = time.perf_counter()
        cold_session = Session(library=library, cache_dir=store_dir)
        cold = cold_session.plan(MODEL, intel, strategy="pbqp", verify=False)
        cold_seconds.append(time.perf_counter() - start)
        # One table build per cold start, and one store miss.
        assert len(builds) == round_index + 1
        assert cold_session.store.stats().misses == 1

    def warm_start():
        # A brand-new session: the only warm state is the on-disk store.
        session = Session(library=library, cache_dir=store_dir)
        return session.plan(MODEL, intel, strategy="pbqp", verify=False)

    warm = benchmark.pedantic(warm_start, rounds=ROUNDS, iterations=1)

    # Zero profiling across every warm start, and an identical selection.
    assert len(builds) == ROUNDS
    assert warm.network_plan.conv_selections() == cold.network_plan.conv_selections()

    cold_ms = statistics.median(cold_seconds) * 1e3
    warm_ms = statistics.median(benchmark.stats.stats.data) * 1e3
    record_metric("store_warm_start", "cold_start_ms", cold_ms)
    record_metric("store_warm_start", "warm_start_ms", warm_ms)
    record_metric("store_warm_start", "warm_speedup_x", cold_ms / warm_ms)
    emit(
        f"CostStore warm start — fresh process, zero profiling (median of {ROUNDS})\n"
        f"model: {MODEL}, store: {len(Session(library=library, cache_dir=store_dir).store.entries())} entr(y/ies)\n"
        f"cold start (profile + solve + persist): {cold_ms:10.2f} ms\n"
        f"warm start (load tables + solve):       {warm_ms:10.2f} ms\n"
        f"warm/cold speedup:                      {cold_ms / warm_ms:10.2f}x\n"
        f"cost-table builds observed:             {len(builds)} (cold only)"
    )
    assert warm_ms < cold_ms
