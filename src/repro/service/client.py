"""A small stdlib HTTP client for the planning daemon.

Used by the end-to-end tests, the throughput benchmark, the CI smoke job and
the examples — anything that needs to talk to a running ``repro serve``
without growing a dependency.  One :class:`PlannerClient` wraps one
``host:port``; each call opens its own :class:`http.client.HTTPConnection`,
so a single client instance may be shared across threads (the benchmark
hammers one from a pool).

Non-2xx responses raise :class:`ServiceError` carrying the parsed structured
error envelope (``code``, ``message``, ``details``) the service emits, so a
test can assert on validation details instead of string-matching HTML.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple


class ServiceError(Exception):
    """A non-2xx response from the daemon, with its structured error body."""

    def __init__(self, status: int, payload: dict) -> None:
        self.status = status
        self.payload = payload
        error = payload.get("error", {}) if isinstance(payload, dict) else {}
        self.code = error.get("code", "unknown")
        self.details = error.get("details", [])
        message = error.get("message", "service error")
        super().__init__(f"HTTP {status} [{self.code}]: {message}")


class PlannerClient:
    """Typed entry points over six of the daemon's seven endpoints.

    ``POST /v1/validate`` has no typed method; call it through :meth:`request`.
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8735, timeout: float = 60.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- plumbing ----------------------------------------------------------------

    def request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> Tuple[int, dict]:
        """One raw round trip; returns ``(status, parsed payload)``."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = None if body is None else json.dumps(body)
            connection.request(
                method,
                path,
                body=payload,
                headers={"Content-Type": "application/json"} if payload else {},
            )
            response = connection.getresponse()
            raw = response.read()
            document = json.loads(raw) if raw else {}
            return response.status, document
        finally:
            connection.close()

    def _call(self, method: str, path: str, body: Optional[dict] = None) -> dict:
        status, document = self.request(method, path, body)
        if status >= 400:
            raise ServiceError(status, document)
        return document

    def wait_until_ready(self, timeout: float = 10.0, interval: float = 0.05) -> dict:
        """Poll ``/v1/healthz`` until the daemon answers (or raise TimeoutError)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.healthz()
            except (ConnectionError, socket.timeout, OSError):
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"planner at {self.host}:{self.port} not ready after {timeout}s"
                    ) from None
                time.sleep(interval)

    # -- endpoints ---------------------------------------------------------------

    def plan(
        self,
        model: str,
        platform: str,
        strategy: str = "pbqp",
        threads: int = 1,
        batch: int = 1,
        dtype: str = "fp32",
    ) -> dict:
        return self._call(
            "POST",
            "/v1/plan",
            {
                "model": model,
                "platform": platform,
                "strategy": strategy,
                "threads": threads,
                "batch": batch,
                "dtype": dtype,
            },
        )

    def compare(
        self,
        model: str,
        platform: str,
        threads: int = 1,
        batch: int = 1,
        dtype: str = "fp32",
        strategies: Optional[Sequence[str]] = None,
        include_frameworks: bool = True,
    ) -> dict:
        body: Dict[str, Any] = {
            "model": model,
            "platform": platform,
            "threads": threads,
            "batch": batch,
            "dtype": dtype,
            "include_frameworks": include_frameworks,
        }
        if strategies is not None:
            body["strategies"] = list(strategies)
        return self._call("POST", "/v1/compare", body)

    def frontier(
        self,
        model: str,
        platform: str,
        threads: int = 1,
        batch: int = 1,
        seed: int = 0,
        budget_steps: Optional[int] = None,
        constraints: Optional[Dict[str, float]] = None,
        dtypes: Optional[Sequence[str]] = None,
        include_plans: bool = False,
    ) -> dict:
        body: Dict[str, Any] = {
            "model": model,
            "platform": platform,
            "threads": threads,
            "batch": batch,
            "seed": seed,
            "include_plans": include_plans,
        }
        if budget_steps is not None:
            body["budget_steps"] = budget_steps
        if dtypes is not None:
            body["dtypes"] = list(dtypes)
        if constraints is not None:
            body["constraints"] = dict(constraints)
        return self._call("POST", "/v1/frontier", body)

    def platforms(self) -> List[dict]:
        return self._call("GET", "/v1/platforms")["platforms"]

    def healthz(self) -> dict:
        return self._call("GET", "/v1/healthz")

    def metrics(self) -> dict:
        return self._call("GET", "/v1/metrics")

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"PlannerClient(http://{self.host}:{self.port})"
