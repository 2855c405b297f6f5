"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper (see the
per-experiment index in DESIGN.md) and prints the reproduced rows so that
``pytest benchmarks/ --benchmark-only -s`` doubles as the reproduction report.

Setting ``REPRO_BENCH_SMOKE=1`` runs the suite in *smoke mode*: scenario
lists are trimmed to the tiny networks (the VGG instances dominate the
runtime) and assertions that need the full network set are skipped.  CI uses
this to smoke-test every benchmark on each pull request.

Benchmarks that measure a speed call :func:`record_metric`; at the end of
the run each recording benchmark's metrics are written to a
``BENCH_<name>.json`` trajectory file at the repository root (one run entry
per commit), so the warm-path speedups and solver times are tracked across
PRs instead of staying anecdotal in the printed tables.  Set
``REPRO_BENCH_DIR`` to redirect the files (CI smoke runs write to a scratch
directory instead of dirtying the checkout).
"""

from __future__ import annotations

import json
import os
import subprocess
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import pytest

from repro.cost.platform import PLATFORMS
from repro.primitives.registry import default_primitive_library

#: Schema tag of the ``BENCH_*.json`` trajectory files.
BENCH_FORMAT = "repro/bench-trajectory/v1"

#: Whether the suite runs with trimmed, tiny scenario sizes (CI smoke job).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in {"", "0"}

#: Mark for assertions that only hold on the full (non-smoke) scenario set.
smoke_skip = pytest.mark.skipif(
    SMOKE, reason="assertion needs the full scenario set (REPRO_BENCH_SMOKE is on)"
)


def smoke_networks(
    names: Sequence[str], tiny: Tuple[str, ...] = ("alexnet",)
) -> List[str]:
    """In smoke mode, trim a benchmark's network list to the tiny scenarios."""
    if not SMOKE:
        return list(names)
    return [name for name in names if name in tiny]


@pytest.fixture(scope="session")
def library():
    """The full primitive library, shared across every benchmark."""
    return default_primitive_library()


@pytest.fixture(scope="session")
def intel():
    return PLATFORMS["intel-haswell"]


@pytest.fixture(scope="session")
def arm():
    return PLATFORMS["arm-cortex-a57"]


def emit(text: str) -> None:
    """Print a reproduced table/figure with a separating banner."""
    print()
    print("=" * 96)
    print(text)
    print("=" * 96)


# ---------------------------------------------------------------------------
# BENCH_*.json perf trajectories
# ---------------------------------------------------------------------------

#: Metrics recorded by the current run, keyed by benchmark name.
_RECORDS: Dict[str, Dict[str, float]] = {}


def record_metric(benchmark: str, metric: str, value: float, dtype: str = "fp32") -> None:
    """Record one scalar for the ``BENCH_<benchmark>.json`` trajectory file.

    ``benchmark`` is a short slug (``"engine_cache"``, ``"frontier"``);
    ``metric`` names the measurement, with its unit as a suffix
    (``"warm_select_ms"``, ``"speedup_x"``).  ``dtype`` is the precision
    dimension: non-fp32 measurements are keyed ``<metric>@<dtype>`` so the
    fp32 history stays comparable across commits while the quantized runs
    land beside it in the same trajectory.  Each call updates the file on
    disk immediately (pytest imports conftest plugins under their own module
    names, so a session-finish hook could see different module state than
    the benchmarks that imported :func:`record_metric`).
    """
    key = metric if dtype == "fp32" else f"{metric}@{dtype}"
    _RECORDS.setdefault(benchmark, {})[key] = float(value)
    _flush(benchmark)


def _bench_dir() -> Path:
    override = os.environ.get("REPRO_BENCH_DIR", "")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent.parent


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args],
        cwd=Path(__file__).resolve().parent,
        capture_output=True,
        text=True,
        check=True,
    ).stdout


def _git_commit() -> str:
    """Short hash of HEAD, suffixed ``-dirty`` when tracked files differ from it.

    A run on uncommitted changes measured code HEAD does not hold, so it must
    not be credited to HEAD.  The trajectory files themselves are ignored:
    the first benchmark of a run rewrites one, which must not mark the rest
    of the run dirty.
    """
    try:
        commit = _git("rev-parse", "--short", "HEAD").strip()
        status = _git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    # Porcelain lines are "XY <path>", paths relative to the repository root.
    dirty = any(
        not (line[3:].startswith("BENCH_") and line.endswith(".json"))
        for line in status.splitlines()
    )
    return f"{commit}-dirty" if dirty else commit


def _flush(benchmark: str) -> None:
    """Write one benchmark's metrics into its trajectory file.

    A re-run at the same commit (and smoke setting) replaces its earlier
    entry, so iterating locally never inflates the trajectory.
    """
    metrics = _RECORDS.get(benchmark, {})
    if not metrics:
        return
    directory = _bench_dir()
    directory.mkdir(parents=True, exist_ok=True)
    commit = _git_commit()
    path = directory / f"BENCH_{benchmark}.json"
    document = {"format": BENCH_FORMAT, "benchmark": benchmark, "runs": []}
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if loaded.get("format") == BENCH_FORMAT:
                document = loaded
        except (ValueError, OSError):
            pass
    runs = [
        run
        for run in document.get("runs", [])
        if not (run.get("commit") == commit and run.get("smoke") == SMOKE)
    ]
    runs.append(
        {"commit": commit, "smoke": SMOKE, "metrics": dict(sorted(metrics.items()))}
    )
    document["runs"] = runs
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
