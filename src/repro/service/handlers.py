"""One handler per endpoint, routed through the :data:`ENDPOINTS` table.

Each handler is a plain function taking ``(app, params)`` — ``params`` already
validated against the endpoint's declared :class:`~repro.service.app.Field`
specs — and returning the JSON-shaped response payload, or, for the cached
planning endpoints, the body :meth:`~repro.service.app.PlannerApp.cached_body`
encoded when the document was built.  :data:`ENDPOINTS`,
the literal at the end of this module, pairs each handler with its method,
path, fields and description; :meth:`repro.service.app.PlannerApp.handle`
routes from it, so adding an endpoint is one function plus one row.

Handlers raise :class:`~repro.service.app.ApiError` for domain errors that
validation cannot catch declaratively (e.g. a platform-gated strategy on the
wrong platform), and never touch the socket: the app layer owns status codes,
error envelopes and metrics.
"""

from __future__ import annotations

import sys
from typing import Dict, Tuple

from repro.core.strategies import registered_names
from repro.cost.platform import PLATFORMS, list_platforms
from repro.graph.scenario import DTYPES
from repro.models import MODEL_BUILDERS
from repro.multiobj.vector import OBJECTIVES
from repro.pbqp.solver import solve_count
from repro.service.app import (
    ApiError,
    Endpoint,
    Field,
    Params,
    PlannerApp,
    ValidationError,
    build_plan_document,
)

# -- shared field specs --------------------------------------------------------

_MODEL = Field(
    "model", "string", required=True, choices=lambda: MODEL_BUILDERS,
    description="model zoo network name",
)
_PLATFORM = Field(
    "platform", "string", required=True, choices=list_platforms,
    description="registered platform name",
)
_STRATEGY = Field(
    "strategy", "string", default="pbqp", choices=registered_names,
    description="registered selection strategy",
)
_THREADS = Field("threads", "integer", default=1, minimum=1)
#: 64 is the largest batch any study in the repo prices
#: (``scaling.DEFAULT_BATCHES``); each distinct batch mints its own
#: context and documents, so the bound keeps the caches' hit ratio honest.
_BATCH = Field("batch", "integer", default=1, minimum=1, maximum=64)
_DTYPE = Field(
    "dtype", "string", default="fp32", choices=lambda: DTYPES,
    description="numeric precision the plan is priced and executed in",
)

#: Valid ``{objective}_max`` keys of a frontier constraints object.
_CONSTRAINT_KEYS = tuple(f"{objective}_max" for objective in OBJECTIVES)


def _check_threads(params: Params) -> None:
    """Refuse ``threads`` above the platform's cores (see :meth:`Platform.threads_error`)."""
    message = PLATFORMS[params["platform"]].threads_error(params["threads"])
    if message is not None:
        raise ValidationError([{"field": "threads", "message": message}])


# -- planning endpoints --------------------------------------------------------


def handle_plan(app: PlannerApp, params: Params) -> bytes:
    _check_threads(params)
    names = ("model", "platform", "strategy", "threads", "batch", "dtype")
    args = {name: params[name] for name in names}
    key = ("plan", *args.values())

    def build() -> dict:
        with app.metrics.time("plan_build_ms"):
            try:
                return build_plan_document(app.session, **args)
            except ValueError as exc:
                # Strategy gating (e.g. mkldnn on a NEON platform) is a client error.
                raise ApiError(400, "strategy_not_applicable", str(exc)) from None

    body, cached = app.cached_body(key, build)
    app.metrics.inc("plan_cache_hits" if cached else "plan_cache_misses")
    return body


def handle_compare(app: PlannerApp, params: Params) -> bytes:
    _check_threads(params)
    strategies = params["strategies"]
    if strategies is not None:
        known = set(registered_names())
        bad = [name for name in strategies if name not in known]
        if bad:
            raise ApiError(
                400,
                "unknown_strategy",
                f"unknown strategies {bad}; valid: {', '.join(sorted(known))}",
            )
    key = (
        "compare",
        params["model"],
        params["platform"],
        params["threads"],
        params["batch"],
        params["dtype"],
        tuple(strategies) if strategies is not None else None,
        params["include_frameworks"],
    )

    def build() -> dict:
        try:
            report = app.session.compare(
                params["model"],
                params["platform"],
                threads=params["threads"],
                batch=params["batch"],
                dtype=params["dtype"],
                strategies=strategies,
                include_frameworks=params["include_frameworks"],
            )
        except ValueError as exc:
            raise ApiError(400, "strategy_not_applicable", str(exc)) from None
        return {
            "format": "repro/service/v1",
            "model": report.model,
            "platform": report.platform,
            "threads": report.threads,
            "batch": report.batch,
            "dtype": report.dtype,
            "baseline": report.baseline.strategy,
            "best": report.best.strategy,
            "results": [
                {
                    "strategy": strategy,
                    "total_ms": total_ms,
                    "speedup_over_baseline": speedup,
                }
                for strategy, total_ms, speedup in report.rows()
            ],
        }

    return app.cached_body(key, build)[0]


def handle_frontier(app: PlannerApp, params: Params) -> bytes:
    _check_threads(params)
    dtypes = params["dtypes"]
    if dtypes is not None:
        bad = [name for name in dtypes if name not in DTYPES]
        if bad:
            raise ApiError(
                400,
                "unknown_dtype",
                f"unknown dtypes {bad}; valid: {', '.join(DTYPES)}",
            )
    constraints = params["constraints"]
    if constraints is not None:
        bad = sorted(set(constraints) - set(_CONSTRAINT_KEYS))
        not_numeric = sorted(
            key
            for key, value in constraints.items()
            if key in _CONSTRAINT_KEYS
            and (isinstance(value, bool) or not isinstance(value, (int, float)))
        )
        if bad or not_numeric:
            problems = [f"unknown constraint keys {bad}"] if bad else []
            if not_numeric:
                problems.append(f"non-numeric bounds for {not_numeric}")
            raise ApiError(
                400,
                "invalid_constraints",
                "; ".join(problems) + f"; valid keys: {', '.join(_CONSTRAINT_KEYS)}",
            )
    key = (
        "frontier",
        params["model"],
        params["platform"],
        params["threads"],
        params["batch"],
        params["seed"],
        params["budget_steps"],
        tuple(dtypes) if dtypes is not None else None,
        tuple(sorted(constraints.items())) if constraints else None,
        params["include_plans"],
    )

    def build() -> dict:
        from repro.multiobj.frontier import DEFAULT_BUDGET_STEPS

        with app.metrics.time("frontier_build_ms"):
            frontier = app.session.plan_frontier(
                params["model"],
                params["platform"],
                threads=params["threads"],
                batch=params["batch"],
                constraints=dict(constraints) if constraints else None,
                seed=params["seed"],
                budget_steps=params["budget_steps"] or DEFAULT_BUDGET_STEPS,
                dtypes=tuple(dtypes) if dtypes is not None else None,
            )
        points = [
            {"generator": point.generator, "vector": point.vector.to_dict()}
            for point in frontier.points
        ]
        document = {
            "format": "repro/service/v1",
            "model": frontier.network_name,
            "platform": frontier.platform_name,
            "threads": frontier.threads,
            "batch": frontier.batch,
            "seed": frontier.seed,
            "dtypes": list(dtypes) if dtypes is not None else list(DTYPES),
            "candidates_evaluated": frontier.candidates_evaluated,
            "dominated_count": frontier.dominated_count,
            "points": points,
        }
        if params["include_plans"]:
            document["frontier"] = frontier.to_dict()
        return document

    return app.cached_body(key, build)[0]


def handle_validate(app: PlannerApp, params: Params) -> dict:
    from repro.analysis.plan_verifier import verify_document

    # Deliberately uncached: validation is cheap (no solves, no profiling)
    # and the submitted documents are arbitrary client payloads.
    report = verify_document(params["document"], source="request.document")
    return {
        "format": "repro/service/v1",
        "ok": report.ok,
        "errors": len(report.errors),
        "warnings": len(report.warnings),
        "report": report.to_dict(),
    }


# -- introspection endpoints ---------------------------------------------------


def handle_platforms(app: PlannerApp, params: Params) -> dict:
    platforms = []
    for name in list_platforms():
        platform = PLATFORMS[name]
        platforms.append(
            {
                "name": name,
                "cores": platform.cores,
                "frequency_ghz": platform.frequency_ghz,
                "vector_width": platform.vector_width,
                "last_level_cache_kib": platform.last_level_cache_bytes() // 1024,
                "dram_bandwidth_gbps": platform.dram_bandwidth_gbps,
                "launch_overhead_us": platform.launch_overhead_s * 1e6,
                "features": sorted(platform.features),
            }
        )
    return {"format": "repro/service/v1", "platforms": platforms}


def handle_healthz(app: PlannerApp, params: Params) -> dict:
    return {
        "status": "ok",
        "uptime_s": app.uptime_s,
        "python": sys.version.split()[0],
        "models": len(MODEL_BUILDERS),
        "platforms": len(PLATFORMS),
        "strategies": len(registered_names()),
        "cached_documents": len(app.documents),
    }


def handle_metrics(app: PlannerApp, params: Params) -> dict:
    document = app.metrics.snapshot()
    document["uptime_s"] = app.uptime_s
    document["cached_documents"] = len(app.documents)
    # The solve counter is process-wide: a warm daemon serving only cached
    # plans holds it flat, which is exactly what the acceptance test asserts.
    document["pbqp_solves_total"] = solve_count()
    session_info = app.session.cache_info()
    document["session"] = {
        "context_hits": session_info.hits,
        "context_misses": session_info.misses,
        "contexts": session_info.contexts,
    }
    store = app.session.store
    if store is not None:
        stats = store.stats()
        document["store"] = {
            "hits": stats.hits,
            "misses": stats.misses,
            "evictions": stats.evictions,
            "entries": stats.entries,
            "bytes_on_disk": stats.bytes_on_disk,
        }
    return document


# -- the routing table ---------------------------------------------------------

#: Every endpoint, ``(method, path) -> Endpoint``, in routing order.
ENDPOINTS: Dict[Tuple[str, str], Endpoint] = {
    (endpoint.method, endpoint.path): endpoint
    for endpoint in (
        Endpoint(
            "POST",
            "/v1/plan",
            handle_plan,
            fields=(_MODEL, _PLATFORM, _STRATEGY, _THREADS, _BATCH, _DTYPE),
            description="select one plan (cached; warm requests perform zero solves)",
        ),
        Endpoint(
            "POST",
            "/v1/compare",
            handle_compare,
            fields=(
                _MODEL,
                _PLATFORM,
                _THREADS,
                _BATCH,
                _DTYPE,
                Field("strategies", "array", description="subset of strategies to evaluate"),
                Field("include_frameworks", "boolean", default=True),
            ),
            description="evaluate every applicable strategy, ranked by total cost",
        ),
        Endpoint(
            "POST",
            "/v1/frontier",
            handle_frontier,
            fields=(
                _MODEL,
                _PLATFORM,
                _THREADS,
                _BATCH,
                Field("seed", "integer", default=0, minimum=0),
                Field("budget_steps", "integer", minimum=1),
                Field(
                    "dtypes",
                    "array",
                    description="precisions spanned by the front (default: all registered)",
                ),
                Field("constraints", "object", description="{objective}_max bounds"),
                Field(
                    "include_plans",
                    "boolean",
                    default=False,
                    description="embed full serialized plans for every frontier point",
                ),
            ),
            description="build the multi-objective Pareto frontier of plans",
        ),
        Endpoint(
            "POST",
            "/v1/validate",
            handle_validate,
            fields=(
                Field(
                    "document",
                    "object",
                    required=True,
                    description="a serialized plan/tables/frontier/store-entry/"
                    "service document to verify statically",
                ),
            ),
            description="statically verify a serialized document without executing it",
        ),
        Endpoint(
            "GET",
            "/v1/platforms",
            handle_platforms,
            description="every registered platform with its parameters",
        ),
        Endpoint(
            "GET",
            "/v1/healthz",
            handle_healthz,
            description="liveness probe",
        ),
        Endpoint(
            "GET",
            "/v1/metrics",
            handle_metrics,
            description="counters, latency histograms, store and solver state",
        ),
    )
}
