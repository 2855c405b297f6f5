"""One handler per endpoint, published through a decorator registry.

Each handler is a plain function taking ``(app, params)`` — ``params`` already
validated against the endpoint's declared :class:`~repro.service.app.Field`
specs — and returning the JSON-shaped response payload.  The
:func:`register_endpoint` decorator records it in :data:`ENDPOINTS`, which
:meth:`repro.service.app.PlannerApp.handle` routes from; adding an endpoint
is one decorated function.

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
from repro.service.app import ApiError, Endpoint, Field, Params, PlannerApp, ValidationError

#: The endpoint registry: ``(method, path) -> Endpoint``, in registration order.
ENDPOINTS: Dict[Tuple[str, str], Endpoint] = {}


def register_endpoint(method: str, path: str, fields: Tuple[Field, ...] = (), description: str = ""):
    """Decorator publishing a handler in :data:`ENDPOINTS`."""

    def decorator(fn):
        key = (method, path)
        if key in ENDPOINTS:
            raise ValueError(f"duplicate endpoint {method} {path}")
        ENDPOINTS[key] = Endpoint(
            method=method, path=path, fn=fn, fields=tuple(fields), description=description
        )
        return fn

    return decorator


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
_BATCH = Field("batch", "integer", default=1, minimum=1)
_DTYPE = Field(
    "dtype", "string", default="fp32", choices=lambda: DTYPES,
    description="numeric precision the plan is priced and executed in",
)

#: Valid ``{objective}_max`` keys of a frontier constraints object.
_CONSTRAINT_KEYS = tuple(f"{objective}_max" for objective in OBJECTIVES)


def _check_threads(params: Params) -> None:
    """Refuse ``threads`` above the platform's cores.

    The cost model clamps threads to the cores, so a larger count would price
    the same plan under a new cache key.
    """
    cores = PLATFORMS[params["platform"]].cores
    if params["threads"] > cores:
        raise ValidationError(
            [
                {
                    "field": "threads",
                    "message": f"must be <= {cores}, the cores of {params['platform']}",
                }
            ]
        )


# -- planning endpoints --------------------------------------------------------


@register_endpoint(
    "POST",
    "/v1/plan",
    fields=(_MODEL, _PLATFORM, _STRATEGY, _THREADS, _BATCH, _DTYPE),
    description="select one plan (cached; warm requests perform zero solves)",
)
def handle_plan(app: PlannerApp, params: Params) -> dict:
    _check_threads(params)
    try:
        document, cached = app.plan_document(
            params["model"],
            params["platform"],
            strategy=params["strategy"],
            threads=params["threads"],
            batch=params["batch"],
            dtype=params["dtype"],
        )
    except ValueError as exc:
        # Strategy gating (e.g. mkldnn on a NEON platform) is a client error.
        raise ApiError(400, "strategy_not_applicable", str(exc)) from None
    return {**document, "from_cache": cached}


@register_endpoint(
    "POST",
    "/v1/compare",
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
)
def handle_compare(app: PlannerApp, params: Params) -> dict:
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

    document, cached = app.documents.get_or_build(key, build)
    return {**document, "from_cache": cached}


@register_endpoint(
    "POST",
    "/v1/frontier",
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
)
def handle_frontier(app: PlannerApp, params: Params) -> dict:
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

    document, cached = app.documents.get_or_build(key, build)
    return {**document, "from_cache": cached}


@register_endpoint(
    "POST",
    "/v1/validate",
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
)
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


@register_endpoint(
    "GET", "/v1/platforms", description="every registered platform with its parameters"
)
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


@register_endpoint("GET", "/v1/healthz", description="liveness and warm-state probe")
def handle_healthz(app: PlannerApp, params: Params) -> dict:
    return {
        "status": "ok",
        "uptime_s": app.uptime_s,
        "python": sys.version.split()[0],
        "models": len(MODEL_BUILDERS),
        "platforms": len(PLATFORMS),
        "strategies": len(registered_names()),
        "cached_documents": len(app.documents),
        "warming": app.warming.state(),
    }


@register_endpoint(
    "GET", "/v1/metrics", description="counters, latency histograms, store and solver state"
)
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
    document["warming"] = app.warming.state()
    return document
