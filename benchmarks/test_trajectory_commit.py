"""The commit a ``BENCH_*.json`` trajectory entry is credited to."""

from __future__ import annotations

import subprocess

import pytest

from benchmarks.conftest import _git_commit


def fake_git(monkeypatch, status: str) -> None:
    def run(args, **kwargs):
        stdout = "abc1234\n" if args[1] == "rev-parse" else status
        return subprocess.CompletedProcess(args, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(subprocess, "run", run)


@pytest.mark.parametrize(
    "status, expected",
    [
        ("", "abc1234"),
        (" M src/repro/cost/tables.py\n", "abc1234-dirty"),
        ("M  README.md\n", "abc1234-dirty"),
        # Rewriting the trajectory files is the benchmark run's own doing.
        (" M BENCH_frontier.json\n M BENCH_engine_cache.json\n", "abc1234"),
        (" M BENCH_frontier.json\n M benchmarks/conftest.py\n", "abc1234-dirty"),
    ],
)
def test_dirty_tree_is_marked(monkeypatch, status, expected):
    fake_git(monkeypatch, status)
    assert _git_commit() == expected


@pytest.mark.parametrize(
    "error", [OSError("git not found"), subprocess.CalledProcessError(128, "git")]
)
def test_git_failure_is_unknown(monkeypatch, error):
    def run(args, **kwargs):
        raise error

    monkeypatch.setattr(subprocess, "run", run)
    assert _git_commit() == "unknown"
