"""Planner-service throughput: warm vs cold request latency over real HTTP.

The service's contract is that a *warm* ``POST /v1/plan`` is a dictionary
read — no profiling, no PBQP solve — so its latency is wire + JSON, orders of
magnitude under a cold plan.  The benchmark boots the real daemon (ephemeral
port, threaded server), measures one cold request, then hammers a warmed
mixed grid with concurrent clients and records the warm p50/p99 and the
sustained requests/second into ``BENCH_service_throughput.json``.

The correctness gates of the acceptance criterion ride along: every
concurrent response must be 200 with a plan byte-identical to the direct
:meth:`Session.plan` answer, and the barrage must perform zero PBQP solves
(checked via the process-wide solve counter, not timing).
"""

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from benchmarks.conftest import SMOKE, emit, record_metric
from repro.cost.serialize import plan_to_dict
from repro.pbqp.solver import solve_count
from repro.service import PlannerApp, PlannerClient, make_server
from repro.service.metrics import quantile

MODELS = ("alexnet",) if SMOKE else ("alexnet", "resnet18", "mobilenet_v1")
PLATFORMS = ("intel-haswell",) if SMOKE else ("intel-haswell", "arm-cortex-a57")
BATCHES = (1,) if SMOKE else (1, 4)
CONCURRENT_REQUESTS = 20 if SMOKE else 100
POOL_WIDTH = 8 if SMOKE else 16


def test_service_warm_throughput(benchmark, tmp_path):
    app = PlannerApp(cache_dir=str(tmp_path))
    server = make_server(app)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    client = PlannerClient(*server.server_address[:2])
    try:
        client.wait_until_ready()

        # One cold request: profile + solve + serialize, the price the warm
        # path amortizes away.
        start = time.perf_counter()
        client.plan(MODELS[0], PLATFORMS[0])
        cold_ms = (time.perf_counter() - start) * 1e3

        # Warm the whole grid and pin the expected canonical plan bytes.
        grid = [
            (model, platform, batch)
            for model in MODELS
            for platform in PLATFORMS
            for batch in BATCHES
        ]
        expected = {}
        for model, platform, batch in grid:
            client.plan(model, platform, batch=batch)
            direct = app.session.plan(model, platform, batch=batch)
            expected[(model, platform, batch)] = json.dumps(
                plan_to_dict(direct.network_plan), sort_keys=True
            )

        # Warm request latency, measured sequentially from one client: the
        # true per-request service time (wire + JSON + a dictionary read).
        # Under the saturated barrage below, per-request wall time measures
        # queueing (in-flight / throughput), not service time — and the
        # server-side request_latency histogram covers the cold warm-up
        # builds above, so neither is the honest warm-latency number.
        warm_latencies_ms = []
        for index in range(3 * len(grid)):
            model, platform, batch = grid[index % len(grid)]
            start = time.perf_counter()
            client.plan(model, platform, batch=batch)
            warm_latencies_ms.append((time.perf_counter() - start) * 1e3)

        requests = [grid[i % len(grid)] for i in range(CONCURRENT_REQUESTS)]
        solves_before = solve_count()

        def barrage():
            with ThreadPoolExecutor(max_workers=POOL_WIDTH) as pool:
                return list(
                    pool.map(
                        lambda spec: client.plan(spec[0], spec[1], batch=spec[2]),
                        requests,
                    )
                )

        documents = benchmark.pedantic(barrage, rounds=3, iterations=1)

        # Correctness gates: all cached, byte-identical, zero solves.
        assert solve_count() == solves_before
        for spec, document in zip(requests, documents):
            assert document["from_cache"] is True
            assert json.dumps(document["plan"], sort_keys=True) == expected[spec]

        elapsed_s = benchmark.stats.stats.mean
        requests_per_s = CONCURRENT_REQUESTS / elapsed_s
        ordered = sorted(warm_latencies_ms)
        warm_p50_ms = quantile(ordered, 0.50)
        warm_p99_ms = quantile(ordered, 0.99)
        record_metric("service_throughput", "cold_plan_ms", cold_ms)
        record_metric("service_throughput", "warm_p50_ms", warm_p50_ms)
        record_metric("service_throughput", "warm_p99_ms", warm_p99_ms)
        record_metric("service_throughput", "requests_per_s", requests_per_s)
        emit(
            "Planner service — warm concurrent throughput over HTTP\n"
            f"grid: {len(MODELS)} models x {len(PLATFORMS)} platforms x "
            f"{len(BATCHES)} batches, {CONCURRENT_REQUESTS} concurrent requests "
            f"({POOL_WIDTH} client threads)\n"
            f"cold plan request:        {cold_ms:10.2f} ms\n"
            f"warm request p50:         {warm_p50_ms:10.2f} ms\n"
            f"warm request p99:         {warm_p99_ms:10.2f} ms\n"
            f"sustained throughput:     {requests_per_s:10.0f} requests/s\n"
            f"PBQP solves during barrage: {solve_count() - solves_before} (must be 0)"
        )
        assert warm_p99_ms < cold_ms
    finally:
        server.shutdown()
        server.server_close()
