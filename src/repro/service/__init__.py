"""Planner-as-a-service: a concurrent HTTP/JSON planning daemon over :class:`~repro.api.Session`.

The paper frames primitive selection as an offline solve; this subsystem is
the serving layer a production deployment needs on top of it — a long-running
daemon where plan requests are answered from warm state (a bounded in-process
document cache over the session's bounded contexts, with the sharded
:class:`~repro.cost.store.CostStore` under ``cache_dir``) so that a warm
request's latency is dominated by a cache read, not a PBQP solve.  Everything
is standard library only: :class:`http.server.ThreadingHTTPServer` on the
wire, :mod:`json` payloads, and one background thread for warming.

Layout (the ``api/services`` + ``api/workers`` split the ROADMAP cites):

* :mod:`repro.service.app`      — the application object, request routing and
  schema validation (errors as structured JSON), and the HTTP server glue;
* :mod:`repro.service.handlers` — one handler per endpoint, routed through
  the :data:`~repro.service.handlers.ENDPOINTS` table;
* :mod:`repro.service.workers`  — the background warming queue, drained by
  one dispatcher thread;
* :mod:`repro.service.metrics`  — thread-safe counters and latency
  histograms surfaced at ``GET /v1/metrics``;
* :mod:`repro.service.client`   — the stdlib HTTP client used by tests,
  examples and CI.

Endpoints: ``POST /v1/plan``, ``POST /v1/compare``, ``POST /v1/frontier``,
``POST /v1/validate``, ``GET /v1/platforms``, ``GET /v1/healthz``,
``GET /v1/metrics``.  Start a daemon with ``repro serve`` (optionally
``--warm zoo`` to pre-populate the whole zoo x platform x batch grid in the
background), or in-process:

>>> from repro.service import PlannerApp, make_server           # doctest: +SKIP
>>> server = make_server(PlannerApp(cache_dir="repro-cache"))   # doctest: +SKIP
>>> server.serve_forever()                                      # doctest: +SKIP
"""

from repro.service.app import PlannerApp, make_server, serve
from repro.service.client import PlannerClient, ServiceError
from repro.service.handlers import ENDPOINTS
from repro.service.metrics import Metrics
from repro.service.workers import WarmJob, WarmingQueue, grid_jobs

__all__ = [
    "PlannerApp",
    "make_server",
    "serve",
    "PlannerClient",
    "ServiceError",
    "ENDPOINTS",
    "Metrics",
    "WarmJob",
    "WarmingQueue",
    "grid_jobs",
]
