"""End-to-end tests for the planning daemon (repro.service).

A real ThreadingHTTPServer is booted once per module on an ephemeral port;
every test talks to it through :class:`PlannerClient` — the same stdlib HTTP
path production clients use.  The invariants under test are the service's
contract: responses are valid JSON envelopes, plans are byte-identical to
direct :meth:`Session.plan` calls, and warm requests perform zero PBQP solves
(proved by the process-wide solve counter, not by timing).
"""

import http.client
import json
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import pytest

from repro.cost.serialize import plan_to_dict
from repro.pbqp.solver import solve_count
from repro.service import (
    PlannerApp,
    PlannerClient,
    ServiceError,
    make_server,
)
from repro.service.app import Field, ValidationError, validate_body
from repro.service.metrics import LatencyHistogram, Metrics, labelled, quantile

MODELS = ("alexnet", "resnet18")
PLATFORMS_UNDER_TEST = ("intel-haswell", "arm-cortex-a57")

#: The exact top-level keys of ``/v1/healthz`` and of a store-backed
#: daemon's ``/v1/metrics``.
HEALTHZ_KEYS = {
    "status",
    "uptime_s",
    "python",
    "models",
    "platforms",
    "strategies",
    "cached_documents",
}
METRICS_KEYS = {
    "counters",
    "latencies_ms",
    "uptime_s",
    "cached_documents",
    "pbqp_solves_total",
    "session",
    "store",
}


@contextmanager
def booted(app):
    """Serve ``app`` on an ephemeral port; yields a ready client."""
    server = make_server(app)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = PlannerClient(*server.server_address[:2])
    try:
        client.wait_until_ready()
        yield client
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """One daemon over a store-backed session, shared by the module."""
    app = PlannerApp(cache_dir=str(tmp_path_factory.mktemp("service-store")))
    with booted(app) as client:
        yield app, client


def canonical(document: dict) -> str:
    return json.dumps(document, sort_keys=True)


class TestEnvelopes:
    def test_healthz_reports_registries(self, service):
        app, client = service
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["models"] >= 9 and health["platforms"] >= 4
        assert health["uptime_s"] >= 0
        assert set(health) == HEALTHZ_KEYS

    def test_platforms_lists_every_registered_platform(self, service):
        from repro.cost.platform import list_platforms

        _, client = service
        names = [p["name"] for p in client.platforms()]
        assert names == list_platforms()
        haswell = next(p for p in client.platforms() if p["name"] == "intel-haswell")
        assert haswell["cores"] == 4 and haswell["vector_width"] == 8

    def test_metrics_shape(self, service):
        _, client = service
        metrics = client.metrics()
        assert set(metrics) == METRICS_KEYS
        assert metrics["store"] is not None  # the session wraps a CostStore
        assert metrics["counters"]["requests_total"] >= 1


class TestPlanEndpoint:
    def test_dtype_parameter_is_honoured(self, service):
        app, client = service
        document = client.plan("alexnet", "intel-haswell", dtype="int8")
        assert document["dtype"] == "int8"
        direct = app.session.plan("alexnet", "intel-haswell", dtype="int8")
        assert canonical(document["plan"]) == canonical(
            plan_to_dict(direct.network_plan)
        )
        assert document["plan"]["dtype"] == "int8"

    def test_unknown_dtype_is_a_validation_error(self, service):
        _, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.plan("alexnet", "intel-haswell", dtype="bf16")
        assert excinfo.value.status == 400
        assert any(d["field"] == "dtype" for d in excinfo.value.details)

    def test_plan_matches_direct_session_byte_for_byte(self, service):
        app, client = service
        document = client.plan("alexnet", "intel-haswell")
        direct = app.session.plan("alexnet", "intel-haswell")
        assert canonical(document["plan"]) == canonical(
            plan_to_dict(direct.network_plan)
        )
        assert document["total_ms"] == pytest.approx(direct.total_ms)
        assert document["model"] == "alexnet"
        assert document["platform"] == "intel-haswell"

    def test_warm_request_is_cached_and_solve_free(self, service):
        _, client = service
        first = client.plan("alexnet", "arm-cortex-a57")
        before = solve_count()
        second = client.plan("alexnet", "arm-cortex-a57")
        assert solve_count() == before  # zero PBQP solves on the warm path
        assert second["from_cache"] is True
        assert canonical(first["plan"]) == canonical(second["plan"])

    def test_strategy_and_batch_parameters_are_honoured(self, service):
        app, client = service
        document = client.plan(
            "alexnet", "intel-haswell", strategy="im2", threads=4, batch=8
        )
        assert document["strategy"] == "im2"
        assert document["batch"] == 8
        direct = app.session.plan(
            "alexnet", "intel-haswell", strategy="im2", threads=4, batch=8
        )
        assert canonical(document["plan"]) == canonical(
            plan_to_dict(direct.network_plan)
        )

    def test_platform_gated_strategy_is_a_client_error(self, service):
        _, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.plan("alexnet", "arm-cortex-a57", strategy="mkldnn")
        assert excinfo.value.status == 400
        assert excinfo.value.code == "strategy_not_applicable"


class TestKeepAlive:
    def test_kept_alive_connection_does_not_stall(self, service):
        """Twenty warm plans on one HTTP/1.1 connection stay far below the
        ~40 ms a Nagle / delayed-ACK stall adds to every response."""
        _, client = service
        client.plan("alexnet", "intel-haswell")  # warm the document cache
        connection = http.client.HTTPConnection(client.host, client.port, timeout=30)
        body = json.dumps({"model": "alexnet", "platform": "intel-haswell"})
        latencies_ms = []
        try:
            for _ in range(20):
                start = time.perf_counter()
                connection.request(
                    "POST", "/v1/plan", body=body, headers={"Content-Type": "application/json"}
                )
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["from_cache"] is True
                latencies_ms.append(1e3 * (time.perf_counter() - start))
        finally:
            connection.close()
        assert statistics.median(latencies_ms) < 20.0


class TestValidation:
    def test_all_problems_reported_in_one_response(self, service):
        _, client = service
        status, payload = client.request(
            "POST", "/v1/plan", {"platform": "not-a-platform", "batch": 0, "bogus": 1}
        )
        assert status == 400
        assert payload["error"]["code"] == "validation_error"
        fields = sorted(d["field"] for d in payload["error"]["details"])
        assert fields == ["batch", "bogus", "model", "platform"]

    def test_unknown_choice_lists_valid_names(self, service):
        _, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.plan("not-a-model", "intel-haswell")
        detail = excinfo.value.details[0]
        assert detail["field"] == "model" and "alexnet" in detail["message"]

    def test_bool_is_not_an_integer(self, service):
        _, client = service
        status, payload = client.request(
            "POST",
            "/v1/plan",
            {"model": "alexnet", "platform": "intel-haswell", "batch": True},
        )
        assert status == 400
        assert payload["error"]["details"][0]["field"] == "batch"

    def test_non_json_body_is_a_structured_400(self, service):
        import http.client

        _, client = service
        connection = http.client.HTTPConnection(client.host, client.port, timeout=30)
        try:
            connection.request(
                "POST",
                "/v1/plan",
                body=b"this is not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert payload["error"]["code"] == "invalid_json"

    def test_unknown_path_is_404_listing_known_endpoints(self, service):
        _, client = service
        status, payload = client.request("GET", "/v1/nope")
        assert status == 404
        assert payload["error"]["code"] == "not_found"
        assert "/v1/plan" in payload["error"]["message"]

    def test_wrong_method_is_405_listing_allowed(self, service):
        _, client = service
        status, payload = client.request("DELETE", "/v1/plan")
        assert status == 405
        assert payload["error"]["code"] == "method_not_allowed"
        assert payload["error"]["allowed"] == ["POST"]

    def test_batch_at_the_bound_is_accepted(self, service):
        app, _ = service
        status, payload = app.handle(
            "POST", "/v1/plan", {"model": "alexnet", "platform": "intel-haswell", "batch": 64}
        )
        assert status == 200, payload
        assert payload["batch"] == 64

    def test_batch_above_the_bound_is_a_validation_error(self, service):
        app, _ = service
        before = solve_count()
        status, payload = app.handle(
            "POST", "/v1/plan", {"model": "alexnet", "platform": "intel-haswell", "batch": 65}
        )
        assert status == 400
        assert payload["error"]["code"] == "validation_error"
        assert payload["error"]["details"] == [{"field": "batch", "message": "must be <= 64"}]
        assert solve_count() == before

    def test_validate_body_rejects_non_object(self):
        with pytest.raises(ValidationError):
            validate_body([1, 2], (Field("x"),))

    def test_validate_body_checks_maximum_beside_minimum(self):
        fields = (Field("n", "integer", minimum=1, maximum=4),)
        assert validate_body({"n": 4}, fields) == {"n": 4}
        with pytest.raises(ValidationError) as error:
            validate_body({"n": 0, "extra": 1}, fields)
        assert {"field": "n", "message": "must be >= 1"} in error.value.details
        with pytest.raises(ValidationError) as error:
            validate_body({"n": 5}, fields)
        assert error.value.details == [{"field": "n", "message": "must be <= 4"}]

    @pytest.mark.parametrize("path", ["/v1/compare", "/v1/frontier"])
    def test_batch_bound_holds_on_every_batched_endpoint(self, service, path):
        app, _ = service
        before = solve_count()
        status, payload = app.handle(
            "POST", path, {"model": "alexnet", "platform": "intel-haswell", "batch": 65}
        )
        assert status == 400
        assert payload["error"]["code"] == "validation_error"
        assert {"field": "batch", "message": "must be <= 64"} in payload["error"]["details"]
        assert solve_count() == before


class TestCompareAndFrontier:
    def test_compare_matches_direct_session(self, service):
        app, client = service
        document = client.compare("alexnet", "intel-haswell")
        report = app.session.compare("alexnet", "intel-haswell")
        assert document["best"] == report.best.strategy == "pbqp"
        rows = {r["strategy"]: r["total_ms"] for r in document["results"]}
        for strategy, total_ms, _ in report.rows():
            assert rows[strategy] == pytest.approx(total_ms)

    def test_compare_rejects_unknown_strategy(self, service):
        _, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.compare("alexnet", "intel-haswell", strategies=["nope"])
        assert excinfo.value.code == "unknown_strategy"

    def test_frontier_matches_direct_session(self, service):
        app, client = service
        document = client.frontier("alexnet", "intel-haswell", budget_steps=2)
        frontier = app.session.plan_frontier(
            "alexnet", "intel-haswell", budget_steps=2
        )
        assert len(document["points"]) == len(frontier.points)
        served = {canonical(p["vector"]) for p in document["points"]}
        direct = {canonical(p.vector.to_dict()) for p in frontier.points}
        assert served == direct

    def test_frontier_with_one_budget_step(self, service):
        app, _ = service
        status, payload = app.handle(
            "POST",
            "/v1/frontier",
            {
                "model": "alexnet",
                "platform": "intel-haswell",
                "budget_steps": 1,
                "dtypes": ["fp32"],
            },
        )
        assert status == 200, payload
        assert payload["points"]

    def test_frontier_rejects_bad_constraints(self, service):
        _, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.frontier(
                "alexnet", "intel-haswell", constraints={"nonsense_max": 1.0}
            )
        assert excinfo.value.code == "invalid_constraints"

    def test_frontier_include_plans_embeds_full_document(self, service):
        _, client = service
        document = client.frontier(
            "alexnet", "intel-haswell", budget_steps=2, include_plans=True
        )
        assert "frontier" in document
        assert len(document["frontier"]["points"]) == len(document["points"])


class TestThreadsLimit:
    """``threads`` above a platform's cores would only mint duplicate keys."""

    BODIES = {
        "/v1/plan": {},
        "/v1/compare": {"strategies": ["pbqp"], "include_frameworks": False},
        "/v1/frontier": {"budget_steps": 2, "dtypes": ["fp32"]},
    }

    @pytest.mark.parametrize("path", sorted(BODIES))
    def test_threads_above_cores_is_a_validation_error(self, service, path):
        app, _ = service
        before = solve_count()
        status, payload = app.handle(
            "POST",
            path,
            {"model": "alexnet", "platform": "intel-haswell", "threads": 5, **self.BODIES[path]},
        )
        assert status == 400
        assert payload["error"]["code"] == "validation_error"
        assert payload["error"]["details"] == [
            {"field": "threads", "message": "must be <= 4, the cores of intel-haswell"}
        ]
        assert solve_count() == before

    @pytest.mark.parametrize("path", sorted(BODIES))
    def test_threads_equal_to_cores_is_accepted(self, service, path):
        app, _ = service
        status, payload = app.handle(
            "POST",
            path,
            {"model": "alexnet", "platform": "intel-haswell", "threads": 4, **self.BODIES[path]},
        )
        assert status == 200, payload
        assert payload["threads"] == 4

    def test_limit_follows_the_platform(self, service):
        _, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.plan("alexnet", "gpu-sim", threads=2)
        assert excinfo.value.status == 400
        assert excinfo.value.details[0]["message"] == "must be <= 1, the cores of gpu-sim"


class TestConcurrency:
    def test_concurrent_mixed_requests_are_correct_and_solve_free(self, service):
        """The acceptance gate: a warm mixed grid served concurrently.

        Every combination is warmed first, then hit concurrently many times:
        all responses must be 200, byte-identical to the direct session plan,
        and the whole barrage must perform zero PBQP solves.
        """
        app, client = service
        grid = [
            (model, platform, batch)
            for model in MODELS
            for platform in PLATFORMS_UNDER_TEST
            for batch in (1, 4)
        ]
        expected = {}
        for model, platform, batch in grid:
            client.plan(model, platform, batch=batch)  # warm the document
            direct = app.session.plan(model, platform, batch=batch)
            expected[(model, platform, batch)] = canonical(
                plan_to_dict(direct.network_plan)
            )

        requests = [grid[i % len(grid)] for i in range(100)]
        before = solve_count()
        with ThreadPoolExecutor(max_workers=16) as pool:
            documents = list(
                pool.map(lambda spec: client.plan(spec[0], spec[1], batch=spec[2]), requests)
            )
        assert solve_count() == before  # zero solves across 100 warm requests
        for spec, document in zip(requests, documents):
            assert document["from_cache"] is True
            assert canonical(document["plan"]) == expected[spec]

    def test_cold_stampede_builds_each_document_once(self, tmp_path):
        """Same-key concurrent cold requests: one build, identical answers."""
        with booted(PlannerApp(cache_dir=str(tmp_path))) as client:
            with ThreadPoolExecutor(max_workers=8) as pool:
                documents = list(
                    pool.map(
                        lambda _: client.plan("alexnet", "intel-haswell"), range(8)
                    )
                )
            bodies = {canonical(d["plan"]) for d in documents}
            assert len(bodies) == 1
            counters = client.metrics()["counters"]
            assert counters["plan_cache_misses"] == 1
            assert counters["plan_cache_hits"] == 7


class TestMetricsUnit:
    def test_labelled_is_stable(self):
        assert labelled("requests", endpoint="POST /v1/plan", status=200) == (
            'requests{endpoint="POST /v1/plan",status="200"}'
        )

    def test_quantile_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert quantile(values, 0.0) == 1.0
        assert quantile(values, 1.0) == 4.0
        assert quantile(values, 0.5) == pytest.approx(2.5)

    def test_histogram_snapshot(self):
        histogram = LatencyHistogram(window=8)
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 4
        assert snapshot["mean_ms"] == pytest.approx(2.5)
        assert snapshot["max_ms"] == 4.0
        assert snapshot["p50_ms"] == pytest.approx(2.5)

    def test_metrics_time_context(self):
        metrics = Metrics()
        with metrics.time("op_ms"):
            pass
        snapshot = metrics.snapshot()
        assert snapshot["latencies_ms"]["op_ms"]["count"] == 1

    def test_request_latencies_recorded(self, service):
        _, client = service
        client.plan("alexnet", "intel-haswell")
        latencies = client.metrics()["latencies_ms"]
        key = 'request_latency{endpoint="POST /v1/plan"}'
        assert latencies[key]["count"] >= 1
        assert latencies[key]["p99_ms"] >= latencies[key]["p50_ms"] >= 0


class TestRegistry:
    def test_every_handler_is_routed_exactly_once(self):
        """A repeated (method, path) row would silently drop a handler."""
        from repro.service import handlers

        defined = [
            fn for name, fn in vars(handlers).items() if name.startswith("handle_")
        ]
        routed = [endpoint.fn for endpoint in handlers.ENDPOINTS.values()]
        assert len(routed) == len(set(routed)) == len(defined) == 7
        assert set(routed) == set(defined)

    def test_every_endpoint_has_a_description(self, service):
        app, _ = service
        for endpoint in app.endpoints.values():
            assert endpoint.description


class TestStoreIntegration:
    def test_fresh_daemon_over_warm_store_skips_profiling(self, service):
        """The daemon's warm start: a restarted daemon over the same
        ``--cache-dir`` serves its first plans from the persisted tables."""
        app, client = service
        for platform in PLATFORMS_UNDER_TEST:  # ensure the store is warm
            client.plan("alexnet", platform)
        fresh = PlannerApp(cache_dir=str(app.session.store.cache_dir))
        with booted(fresh) as fresh_client:
            for platform in PLATFORMS_UNDER_TEST:
                assert fresh_client.plan("alexnet", platform)["from_cache"] is False
            assert set(fresh_client.healthz()) == HEALTHZ_KEYS
            metrics = fresh_client.metrics()
        assert set(metrics) == METRICS_KEYS
        assert metrics["store"]["misses"] == 0
        assert metrics["store"]["hits"] >= 1

    def test_store_entries_land_in_platform_shards(self, service):
        app, client = service
        for platform in PLATFORMS_UNDER_TEST:  # self-sufficient under -k filters
            client.plan("alexnet", platform)
        store = app.session.store
        shards = {entry.path.parent.name for entry in store.entries()}
        assert shards >= set(PLATFORMS_UNDER_TEST)
