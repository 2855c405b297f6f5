"""Background warming: a job queue drained by one dispatcher thread.

:class:`WarmingQueue` is the service's background warming pump: ``repro
serve --warm zoo`` enqueues the whole zoo x platform x batch x dtype grid and
returns immediately.  The dispatcher thread plans one job at a time through
the daemon's own :class:`~repro.api.Session` while foreground requests keep
being served, so every completed job lands in the shared plan-document cache
and the grid converges to a state where any ``POST /v1/plan`` is a cache read.
A job that raises is counted and logged once per process, and never stops
the queue.
"""

from __future__ import annotations

import logging
import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Iterable, List, Optional, Sequence

logger = logging.getLogger(__name__)

# A failing warm job is logged once per process: a grid whose every job fails
# for one reason would otherwise flood the daemon's log.
_WARM_FAILURE_LOGGED = False
_WARM_FAILURE_LOCK = threading.Lock()


def _log_warm_failure(job: "WarmJob", error: BaseException) -> None:
    global _WARM_FAILURE_LOGGED
    with _WARM_FAILURE_LOCK:
        if _WARM_FAILURE_LOGGED:
            return
        _WARM_FAILURE_LOGGED = True
    logger.warning(
        "warm job %s failed: %s: %s (further failures are only counted in "
        "warm_jobs_failed)",
        job,
        type(error).__name__,
        error,
        exc_info=error,
    )


@dataclass(frozen=True)
class WarmJob:
    """One (model, platform, batch, dtype) combination to warm: a 1-thread PBQP plan."""

    model: str
    platform: str
    batch: int = 1
    dtype: str = "fp32"


def grid_jobs(
    models: Optional[Sequence[str]] = None,
    platforms: Optional[Sequence[str]] = None,
    batches: Sequence[int] = (1,),
    dtypes: Sequence[str] = ("fp32",),
) -> List[WarmJob]:
    """The zoo x platform x batch x dtype warming grid.

    ``models`` defaults to the whole model zoo and ``platforms`` to every
    currently registered platform.
    """
    from repro.cost.platform import list_platforms
    from repro.models import MODEL_BUILDERS

    chosen_models = list(models) if models is not None else sorted(MODEL_BUILDERS)
    chosen_platforms = (
        list(platforms) if platforms is not None else list_platforms()
    )
    return [
        WarmJob(model, platform, batch, dtype)
        for model in chosen_models
        for platform in chosen_platforms
        for batch in batches
        for dtype in dtypes
    ]


class WarmingQueue:
    """A background queue of :class:`WarmJob` run by one dispatcher thread.

    Parameters
    ----------
    run_job:
        Callback executing one job (the app passes its plan-building entry
        point, so completed jobs land in the shared caches).
    metrics:
        Optional :class:`~repro.service.metrics.Metrics`; completed/failed
        jobs are counted as ``warm_jobs_completed`` / ``warm_jobs_failed``.

    The dispatcher thread starts lazily on the first :meth:`enqueue` and
    exits on :meth:`stop`.  :meth:`join` blocks until every enqueued job has
    finished — tests and ``--warm`` smoke runs use it; the daemon never does.
    """

    def __init__(self, run_job: Callable[[WarmJob], object], metrics=None) -> None:
        self.run_job = run_job
        self.metrics = metrics
        # One condition wakes the dispatcher (jobs queued, stop asked) and
        # the joiners (a job finished).
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._jobs: Deque[WarmJob] = deque()
        self._pending = 0
        self._completed = 0
        self._failed = 0
        self._dispatcher: Optional[threading.Thread] = None
        self._stopping = False

    # -- public API --------------------------------------------------------------

    def enqueue(self, jobs: Iterable[WarmJob]) -> int:
        """Add jobs and ensure the dispatcher is running; returns the count."""
        added = list(jobs)
        with self._changed:
            if self._stopping:
                raise RuntimeError("warming queue is stopped")
            self._jobs.extend(added)
            self._pending += len(added)
            if self._dispatcher is None and added:
                self._dispatcher = threading.Thread(
                    target=self._drain, name="repro-warmer", daemon=True
                )
                self._dispatcher.start()
            self._changed.notify_all()
        return len(added)

    def join(self, timeout: Optional[float] = None) -> bool:
        """Block until every enqueued job has finished; True if drained."""
        with self._changed:
            return self._changed.wait_for(lambda: self._pending == 0, timeout=timeout)

    def stop(self) -> None:
        """Stop the dispatcher once the queued jobs have run (idempotent)."""
        with self._changed:
            self._stopping = True
            dispatcher = self._dispatcher
            self._changed.notify_all()
        if dispatcher is not None:
            dispatcher.join()
        with self._lock:
            self._dispatcher = None

    def state(self) -> dict:
        """Queue state for ``/v1/healthz``."""
        with self._lock:
            return {
                "pending": self._pending,
                "completed": self._completed,
                "failed": self._failed,
                "running": self._dispatcher is not None and not self._stopping,
            }

    # -- dispatcher --------------------------------------------------------------

    def _drain(self) -> None:
        while True:
            with self._changed:
                self._changed.wait_for(lambda: self._jobs or self._stopping)
                if not self._jobs:
                    return
                job = self._jobs.popleft()
            try:
                self.run_job(job)
                failed = False
            except Exception as exc:  # noqa: BLE001 - one bad job must not stop warming
                _log_warm_failure(job, exc)
                failed = True
            with self._changed:
                self._pending -= 1
                if failed:
                    self._failed += 1
                else:
                    self._completed += 1
                self._changed.notify_all()
            if self.metrics is not None:
                self.metrics.inc("warm_jobs_failed" if failed else "warm_jobs_completed")

    def __repr__(self) -> str:  # pragma: no cover - trivial
        state = self.state()
        return (
            f"WarmingQueue(pending={state['pending']}, "
            f"completed={state['completed']}, failed={state['failed']})"
        )
