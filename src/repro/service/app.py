"""The planner application: routing, request validation and the HTTP server.

:class:`PlannerApp` is the service's core, deliberately separated from the
wire protocol: :meth:`PlannerApp.handle` maps ``(method, path, body)`` to
``(status, body_bytes)``, the JSON response already encoded by
:func:`encode_body`, which makes every endpoint testable without a socket.
The HTTP layer is a thin :class:`~http.server.ThreadingHTTPServer` (one
thread per connection, pure standard library) whose request handler parses
the request JSON, delegates and writes the bytes it gets back.

Request schemas are declarative: each endpoint registers a tuple of
:class:`Field` specs (see :mod:`repro.service.handlers`), and
:func:`validate_body` checks types, required-ness, choices and bounds in one
pass — *every* problem is reported, as structured JSON::

    {"error": {"code": "validation_error", "message": "...",
               "details": [{"field": "batch", "message": "must be >= 1"}]}}

Shared state is a single thread-safe :class:`~repro.api.Session` plus a
document cache of encoded response bodies keyed by the full request tuple.
Both are :class:`~repro.lru.BuildOnceLRU` memos: bounded, and concurrent
requests for one key trigger exactly one build.  A document is encoded when
it is built, so a warm ``POST /v1/plan``, ``/v1/compare`` or
``/v1/frontier`` is a dictionary read plus a socket write — zero PBQP
solves, which ``/v1/metrics`` proves via the process-wide
:func:`repro.pbqp.solver.solve_count`, and no JSON encoding.  A miss plans in
the daemon: there is no disk tier for documents, only the cost store under
``cache_dir``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, Union
from urllib.parse import urlsplit

from repro.api import Session
from repro.cost.analytical import AnalyticalCostModel
from repro.lru import BuildOnceLRU
from repro.service.metrics import Metrics, labelled

#: Format identifier carried by every successful response envelope.
SERVICE_FORMAT = "repro/service/v1"


# ---------------------------------------------------------------------------
# Errors and request schemas
# ---------------------------------------------------------------------------


class ValidationError(Exception):
    """A request body that fails its endpoint's schema (HTTP 400)."""

    def __init__(self, details: List[Dict[str, str]]) -> None:
        self.details = details
        summary = "; ".join(f"{d['field']}: {d['message']}" for d in details)
        super().__init__(summary or "invalid request")


class ApiError(Exception):
    """A handler-raised error with an explicit HTTP status and code."""

    def __init__(self, status: int, code: str, message: str) -> None:
        self.status = status
        self.code = code
        super().__init__(message)


#: JSON type name -> accepted Python types (bool is deliberately *not* an
#: integer here, although ``isinstance(True, int)`` holds).
_KINDS: Dict[str, Tuple[type, ...]] = {
    "string": (str,),
    "integer": (int,),
    "number": (int, float),
    "boolean": (bool,),
    "object": (dict,),
    "array": (list,),
}


@dataclass(frozen=True)
class Field:
    """One declarative request-body field.

    ``choices`` is a zero-argument callable returning the *currently* valid
    names — the model zoo, platform registry and strategy registry are open,
    so the valid set is resolved per request, not at import time.
    """

    name: str
    kind: str = "string"
    required: bool = False
    default: Any = None
    choices: Optional[Callable[[], Iterable[str]]] = None
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    description: str = ""


def validate_body(body: Any, fields: Sequence[Field]) -> Dict[str, Any]:
    """Validate a parsed JSON body against an endpoint's field specs.

    Returns the cleaned parameter dict (defaults filled in); raises
    :class:`ValidationError` carrying *all* problems found, so a client sees
    every mistake in one round trip instead of one per retry.
    """
    details: List[Dict[str, str]] = []
    if body is None:
        body = {}
    if not isinstance(body, dict):
        raise ValidationError(
            [{"field": "<body>", "message": "request body must be a JSON object"}]
        )
    known = {spec.name for spec in fields}
    for name in sorted(set(body) - known):
        details.append({"field": name, "message": "unknown field"})
    params: Dict[str, Any] = {}
    for spec in fields:
        if spec.name not in body:
            if spec.required:
                details.append({"field": spec.name, "message": "required field is missing"})
            else:
                params[spec.name] = spec.default
            continue
        value = body[spec.name]
        expected = _KINDS[spec.kind]
        if isinstance(value, bool) and spec.kind in ("integer", "number"):
            details.append({"field": spec.name, "message": f"must be a {spec.kind}"})
            continue
        if not isinstance(value, expected):
            details.append({"field": spec.name, "message": f"must be a {spec.kind}"})
            continue
        if spec.minimum is not None and value < spec.minimum:
            details.append(
                {"field": spec.name, "message": f"must be >= {spec.minimum:g}"}
            )
            continue
        if spec.maximum is not None and value > spec.maximum:
            details.append(
                {"field": spec.name, "message": f"must be <= {spec.maximum:g}"}
            )
            continue
        if spec.choices is not None:
            valid = sorted(spec.choices())
            if value not in valid:
                details.append(
                    {
                        "field": spec.name,
                        "message": f"unknown value {value!r}; valid: {', '.join(valid)}",
                    }
                )
                continue
        params[spec.name] = value
    if details:
        raise ValidationError(details)
    return params


def error_payload(code: str, message: str, **extra: Any) -> dict:
    """The structured JSON error envelope every non-2xx response uses."""
    error: Dict[str, Any] = {"code": code, "message": message}
    error.update(extra)
    return {"error": error}


def encode_body(payload: dict) -> bytes:
    """The response body of one JSON payload; every response is encoded here."""
    return json.dumps(payload, sort_keys=True).encode()


# ---------------------------------------------------------------------------
# Plan documents
# ---------------------------------------------------------------------------


def build_plan_document(
    session: Session,
    model: str,
    platform: str,
    strategy: str = "pbqp",
    threads: int = 1,
    batch: int = 1,
    dtype: str = "fp32",
) -> dict:
    """The canonical ``/v1/plan`` response document.

    The embedded ``"plan"`` value is exactly
    :func:`repro.cost.serialize.plan_to_dict` of the session's plan, so a
    service response is byte-identical (after canonical JSON dumping) to a
    direct :meth:`Session.plan` call.
    """
    from repro.cost.serialize import plan_to_dict

    plan = session.plan(
        model, platform, strategy=strategy, threads=threads, batch=batch, dtype=dtype
    )
    network_plan = plan.network_plan
    return {
        "format": SERVICE_FORMAT,
        "model": plan.model,
        "platform": network_plan.platform_name,
        "strategy": network_plan.strategy,
        "threads": network_plan.threads,
        "batch": network_plan.batch,
        "dtype": network_plan.dtype,
        "total_ms": network_plan.total_ms,
        "per_image_ms": network_plan.per_image_ms,
        "plan": plan_to_dict(network_plan),
    }


# ---------------------------------------------------------------------------
# The application
# ---------------------------------------------------------------------------


class PlannerApp:
    """Shared state and routing for the planning daemon.

    :attr:`documents` holds the encoded hit body (``"from_cache": true``) of
    every cached request, so a warm request is a dictionary read plus a
    socket write (:meth:`cached_body`).

    Parameters
    ----------
    session:
        The (thread-safe) session answering every request; built from
        ``cache_dir`` when omitted.
    cache_dir:
        Cost-store directory for the default session — the shared tier that
        lets a *fresh* daemon skip table building entirely.
    """

    def __init__(
        self,
        session: Optional[Session] = None,
        cache_dir: Optional[str] = None,
        metrics: Optional[Metrics] = None,
    ) -> None:
        # Deferred import: handlers imports the schema machinery from this
        # module, so the registry is pulled in at construction time instead.
        from repro.service.handlers import ENDPOINTS

        self.session = session if session is not None else Session(cache_dir=cache_dir)
        self.metrics = metrics if metrics is not None else Metrics()
        self.documents: BuildOnceLRU[bytes] = BuildOnceLRU()
        self.endpoints = ENDPOINTS
        self.started = time.time()
        self._started_monotonic = time.monotonic()

    # -- the document cache -------------------------------------------------------

    def cached_body(self, key: Hashable, build: Callable[[], dict]) -> Tuple[bytes, bool]:
        """The encoded response for one cached request, and whether it was a hit.

        A miss runs ``build`` and encodes its document twice, once per
        ``from_cache`` value: the cache keeps the ``true`` body for every later
        hit, and the miss answers with the ``false`` one.
        """
        miss_body: List[bytes] = []

        def build_body() -> bytes:
            document = build()
            miss, hit = (encode_body({**document, "from_cache": flag}) for flag in (False, True))
            miss_body.append(miss)
            return hit

        body, cached = self.documents.get_or_build(key, build_body)
        return (body if cached else miss_body[0]), cached

    # -- bookkeeping --------------------------------------------------------------

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self._started_monotonic

    # -- routing ------------------------------------------------------------------

    def handle(
        self, method: str, path: str, body: Any = None
    ) -> Tuple[int, bytes]:
        """Route one request to its handler and encode the response; never raises.

        The ``request_latency`` histogram covers the handler and the encoding.
        """
        endpoint = self.endpoints.get((method, path))
        if endpoint is None:
            allowed = sorted(m for (m, p) in self.endpoints if p == path)
            if allowed:
                status, payload = 405, error_payload(
                    "method_not_allowed",
                    f"{method} is not supported for {path}",
                    allowed=allowed,
                )
            else:
                status, payload = 404, error_payload(
                    "not_found",
                    f"unknown endpoint {path}; known: "
                    + ", ".join(sorted({p for (_, p) in self.endpoints})),
                )
            self._record(method, path, status)
            return status, encode_body(payload)
        start = time.perf_counter()
        try:
            params = validate_body(body, endpoint.fields)
            payload = endpoint.fn(self, params)
            status = 200
        except ValidationError as exc:
            status = 400
            payload = error_payload(
                "validation_error", "request failed validation", details=exc.details
            )
        except ApiError as exc:
            status = exc.status
            payload = error_payload(exc.code, str(exc))
        except Exception as exc:  # noqa: BLE001 - the daemon must not die
            status = 500
            payload = error_payload("internal_error", f"{type(exc).__name__}: {exc}")
        body_bytes = payload if isinstance(payload, bytes) else encode_body(payload)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        self._record(method, path, status, elapsed_ms)
        return status, body_bytes

    def invalid_json(self, method: str, path: str, message: str) -> Tuple[int, bytes]:
        """The 400 response for a body that is not JSON at all (counted)."""
        self._record(method, path, 400)
        return 400, encode_body(error_payload("invalid_json", message))

    def _record(
        self, method: str, path: str, status: int, elapsed_ms: Optional[float] = None
    ) -> None:
        self.metrics.inc("requests_total")
        self.metrics.inc(labelled("requests", endpoint=f"{method} {path}", status=status))
        if status >= 500:
            self.metrics.inc("responses_5xx")
        if elapsed_ms is not None:
            self.metrics.observe_ms(
                labelled("request_latency", endpoint=f"{method} {path}"), elapsed_ms
            )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"PlannerApp(session={self.session!r}, documents={len(self.documents)}, "
            f"uptime={self.uptime_s:.0f}s)"
        )


# ---------------------------------------------------------------------------
# HTTP glue
# ---------------------------------------------------------------------------


class PlannerRequestHandler(BaseHTTPRequestHandler):
    """JSON-over-HTTP adapter around :meth:`PlannerApp.handle`."""

    server_version = "repro-planner/1"
    protocol_version = "HTTP/1.1"
    # Headers and body go out in separate writes; with Nagle's algorithm on,
    # the body waits for the client's delayed ACK of the headers (~40 ms per
    # response on a kept-alive connection).
    disable_nagle_algorithm = True

    # -- plumbing ----------------------------------------------------------------

    def _dispatch(self, method: str) -> None:
        app: PlannerApp = self.server.app  # type: ignore[attr-defined]
        path = urlsplit(self.path).path
        body: Any = None
        if method == "POST":
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length) if length > 0 else b""
            if raw:
                try:
                    body = json.loads(raw)
                except json.JSONDecodeError as exc:
                    self._respond(
                        *app.invalid_json(method, path, f"request body is not valid JSON: {exc}")
                    )
                    return
        self._respond(*app.handle(method, path, body))

    def _respond(self, status: int, data: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    # Unsupported methods still flow through the app so the client receives
    # the structured 405 envelope instead of http.server's HTML 501 page.
    def do_PUT(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("PUT")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("DELETE")

    def do_PATCH(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("PATCH")

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Quiet by default; per-request accounting lives in the metrics."""


class PlannerHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server carrying its :class:`PlannerApp`."""

    daemon_threads = True
    # http.server's default listen backlog of 5 resets connections under a
    # concurrent barrage (the acceptance test alone opens 100); a planning
    # daemon is exactly the kind of burst target that needs a real backlog.
    request_queue_size = 128

    def __init__(self, address: Tuple[str, int], app: PlannerApp) -> None:
        super().__init__(address, PlannerRequestHandler)
        self.app = app


def make_server(
    app: PlannerApp, host: str = "127.0.0.1", port: int = 0
) -> PlannerHTTPServer:
    """Bind the daemon (``port=0`` picks an ephemeral port, for tests/CI)."""
    return PlannerHTTPServer((host, port), app)


def serve(
    app: PlannerApp,
    host: str = "127.0.0.1",
    port: int = 8735,
    announce: Callable[[str], None] = print,
) -> int:
    """Run the daemon until interrupted (the ``repro serve`` entry point)."""
    server = make_server(app, host, port)
    # A session without a cost model of its own prices with the analytical one.
    cost_model = app.session.cost_model or AnalyticalCostModel
    bound_host, bound_port = server.server_address[:2]
    announce(
        f"repro planner listening on http://{bound_host}:{bound_port} "
        f"(cost model {cost_model.name}; endpoints: "
        + ", ".join(sorted({p for (_, p) in app.endpoints}))
        + ")"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        announce("shutting down")
    finally:
        server.shutdown()
        server.server_close()
    return 0


#: Re-exported for handlers' type annotations.  A handler returns a payload
#: for :meth:`PlannerApp.handle` to encode, or a body already encoded.
Handler = Callable[[PlannerApp, Dict[str, Any]], Union[dict, bytes]]


@dataclass(frozen=True)
class Endpoint:
    """One registered endpoint: method, path, handler and its field specs."""

    method: str
    path: str
    fn: Handler
    fields: Tuple[Field, ...] = field(default_factory=tuple)
    description: str = ""


# Typing helper kept here so handlers can annotate without importing typing.
Params = Dict[str, Any]
Body = Union[dict, None]
