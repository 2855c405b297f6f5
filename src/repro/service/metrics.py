"""Thread-safe in-process service metrics: counters plus latency histograms.

The daemon answers requests from a thread pool (one thread per connection
under :class:`~http.server.ThreadingHTTPServer`), so every mutation here goes
through one lock.  Two instrument kinds cover what ``GET /v1/metrics`` needs:

* **counters** — monotonically increasing integers (requests by endpoint and
  status, plan-cache hits/misses, 5xx count);
* **latency histograms** — per-endpoint request latencies with running
  count/mean/max over *every* observation and p50/p90/p99 quantiles over a
  bounded window of the most recent observations (so a long-running daemon's
  percentiles track current behaviour instead of averaging over its lifetime).

Names follow a Prometheus-flavoured convention: a bare counter name for
scalars (``"plan_cache_hits"``) and :func:`labelled` for per-endpoint series
(``requests{endpoint="POST /v1/plan",status="200"}``).  The store's hit/miss
counters and the process-wide PBQP solve counter are *merged into* the
metrics snapshot by the ``/v1/metrics`` handler rather than duplicated here —
this module owns only what the service itself observes.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Deque, Dict, List, Optional

#: How many recent observations each histogram retains for quantiles.
DEFAULT_WINDOW = 2048


def labelled(name: str, **labels: object) -> str:
    """A stable ``name{key="value",...}`` series name (labels key-sorted)."""
    if not labels:
        return name
    inner = ",".join(f'{key}="{labels[key]}"' for key in sorted(labels))
    return f"{name}{{{inner}}}"


def quantile(sorted_values: List[float], q: float) -> float:
    """Linear-interpolation quantile of an already-sorted sample."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = position - low
    return sorted_values[low] * (1.0 - fraction) + sorted_values[high] * fraction


class LatencyHistogram:
    """One latency series: running aggregates plus a recent-window sample."""

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        self.count = 0
        self.total_ms = 0.0
        self.max_ms = 0.0
        self._window: Deque[float] = deque(maxlen=window)

    def observe(self, ms: float) -> None:
        self.count += 1
        self.total_ms += ms
        if ms > self.max_ms:
            self.max_ms = ms
        self._window.append(ms)

    def snapshot(self) -> Dict[str, float]:
        ordered = sorted(self._window)
        return {
            "count": self.count,
            "mean_ms": self.total_ms / self.count if self.count else 0.0,
            "max_ms": self.max_ms,
            "p50_ms": quantile(ordered, 0.50),
            "p90_ms": quantile(ordered, 0.90),
            "p99_ms": quantile(ordered, 0.99),
        }


class Metrics:
    """A registry of named counters and latency histograms behind one lock."""

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        self._lock = threading.Lock()
        self._window = window
        self._counters: Dict[str, int] = {}
        self._histograms: Dict[str, LatencyHistogram] = {}

    # -- counters ---------------------------------------------------------------

    def inc(self, name: str, value: int = 1) -> None:
        """Increment a counter (created at zero on first use)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def counter(self, name: str) -> int:
        """Current value of a counter (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    # -- latencies --------------------------------------------------------------

    def observe_ms(self, name: str, ms: float) -> None:
        """Record one latency observation, in milliseconds."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = LatencyHistogram(self._window)
            histogram.observe(ms)

    @contextmanager
    def time(self, name: str):
        """Context manager observing the block's wall time into ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe_ms(name, (time.perf_counter() - start) * 1e3)

    def latency(self, name: str) -> Optional[Dict[str, float]]:
        """Snapshot of one latency series, or ``None`` if never observed."""
        with self._lock:
            histogram = self._histograms.get(name)
            return None if histogram is None else histogram.snapshot()

    # -- reporting --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Everything, JSON-shaped: counters and per-series latency summaries."""
        with self._lock:
            return {
                "counters": {name: self._counters[name] for name in sorted(self._counters)},
                "latencies_ms": {
                    name: self._histograms[name].snapshot()
                    for name in sorted(self._histograms)
                },
            }

    def __repr__(self) -> str:  # pragma: no cover - trivial
        with self._lock:
            return (
                f"Metrics(counters={len(self._counters)}, "
                f"histograms={len(self._histograms)})"
            )
