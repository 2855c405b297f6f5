"""The bounded build-once memo behind Session contexts and service documents."""

import json
import sys
import threading

import pytest

import repro.lru
from repro.api import Session
from repro.cost.serialize import plan_to_dict
from repro.lru import BuildOnceLRU
from repro.service import PlannerApp


def canonical(document) -> str:
    return json.dumps(document, sort_keys=True)


def small(monkeypatch, capacity):
    monkeypatch.setattr(repro.lru, "CAPACITY", capacity)
    return BuildOnceLRU()


def held(cache, key) -> bool:
    """Whether ``key`` is held: a held key is a hit, an evicted one rebuilds."""
    return cache.get_or_build(key, lambda: "rebuilt")[1]


class TestBuildOnceLRU:
    def test_capacity_plus_one_keys_leave_capacity_entries(self, monkeypatch):
        cache = small(monkeypatch, 3)
        for key in range(4):
            value, cached = cache.get_or_build(key, lambda key=key: key * 10)
            assert (value, cached) == (key * 10, False)
        assert len(cache) == 3
        assert cache.stats() == (0, 4, 3)
        assert all(held(cache, key) for key in (1, 2, 3)) and not held(cache, 0)

    def test_capacity_is_the_module_constant(self, monkeypatch):
        assert BuildOnceLRU().capacity == repro.lru.CAPACITY == 128
        monkeypatch.setattr(repro.lru, "CAPACITY", 5)
        assert BuildOnceLRU().capacity == 5

    def test_hit_refreshes_recency(self, monkeypatch):
        cache = small(monkeypatch, 2)
        cache.get_or_build("a", lambda: 1)
        cache.get_or_build("b", lambda: 2)
        assert cache.get_or_build("a", lambda: pytest.fail("a is cached")) == (1, True)
        cache.get_or_build("c", lambda: 3)
        assert held(cache, "a") and held(cache, "c") and not held(cache, "b")

    def test_failed_build_stores_nothing_and_a_retry_succeeds(self, monkeypatch):
        cache = small(monkeypatch, 2)

        def broken():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            cache.get_or_build("k", broken)
        assert len(cache) == 0
        assert cache._building == {}  # no build lock is left behind
        assert cache.get_or_build("k", lambda: 7) == (7, False)
        assert cache.stats() == (0, 1, 1)
        assert cache._building == {}

    def test_concurrent_misses_on_one_key_build_once(self):
        cache = BuildOnceLRU()
        builds = []
        started = threading.Event()
        release = threading.Event()

        def build():
            builds.append(1)
            started.set()
            release.wait(timeout=30)
            return "value"

        results = []
        threads = [
            threading.Thread(target=lambda: results.append(cache.get_or_build("k", build)))
            for _ in range(6)
        ]
        for thread in threads:
            thread.start()
        assert started.wait(timeout=30)
        release.set()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert len(builds) == 1
        assert sorted(cached for _, cached in results) == [False] + [True] * 5
        assert {value for value, _ in results} == {"value"}
        assert cache._building == {}

    def test_waiter_builds_itself_when_the_inflight_build_fails(self):
        cache = BuildOnceLRU()
        started = threading.Event()
        release = threading.Event()

        def failing():
            started.set()
            release.wait(timeout=30)
            raise RuntimeError("boom")

        errors = []

        def first():
            try:
                cache.get_or_build("k", failing)
            except RuntimeError as exc:
                errors.append(exc)

        owner = threading.Thread(target=first)
        owner.start()
        assert started.wait(timeout=30)
        waiter_result = []
        waiter = threading.Thread(
            target=lambda: waiter_result.append(cache.get_or_build("k", lambda: "rebuilt"))
        )
        waiter.start()
        release.set()
        owner.join(timeout=30)
        waiter.join(timeout=30)
        assert not owner.is_alive() and not waiter.is_alive()
        assert len(errors) == 1
        assert waiter_result == [("rebuilt", False)]

    def test_stress_keeps_counts_and_bound(self, monkeypatch):
        """More threads than cores on a tiny cache, with frequent thread switches."""
        cache = small(monkeypatch, 4)
        calls_per_thread, workers = 300, 8
        built = []
        built_lock = threading.Lock()

        def build(key):
            with built_lock:
                built.append(key)
            return key * 2

        def hammer(offset):
            for i in range(calls_per_thread):
                key = (i * 7 + offset) % 9
                value, _ = cache.get_or_build(key, lambda: build(key))
                assert value == key * 2

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(n,)) for n in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        hits, misses, entries = cache.stats()
        assert hits + misses == calls_per_thread * workers
        assert misses == len(built)  # every build that stored a value is counted
        assert entries == len(cache) <= 4
        assert cache._building == {}

    def test_clear_drops_entries_and_counters(self):
        cache = BuildOnceLRU()
        cache.get_or_build("a", lambda: 1)
        cache.get_or_build("a", lambda: 1)
        cache.clear()
        assert cache.stats() == (0, 0, 0)



class TestSessionContextsAreBounded:
    KEYS = ("fp32", "fp16", "int8")

    def test_capacity_plus_one_contexts_leave_capacity(self, monkeypatch):
        monkeypatch.setattr(repro.lru, "CAPACITY", 2)
        session = Session()
        for dtype in self.KEYS:
            session.context_for("alexnet", "intel-haswell", dtype=dtype)
        info = session.cache_info()
        assert (info.contexts, info.misses, info.hits) == (2, 3, 0)

    def test_evicted_context_rebuilds_a_byte_identical_plan(self, monkeypatch):
        monkeypatch.setattr(repro.lru, "CAPACITY", 2)
        session = Session()
        first = canonical(plan_to_dict(session.plan("alexnet", "intel-haswell").network_plan))
        for dtype in self.KEYS[1:]:
            session.plan("alexnet", "intel-haswell", dtype=dtype)
        assert session.cache_info().misses == 3
        again = canonical(plan_to_dict(session.plan("alexnet", "intel-haswell").network_plan))
        info = session.cache_info()
        assert info.misses == 4 and info.contexts == 2  # fp32 was evicted, then rebuilt
        assert again == first

    def test_plan_rebuilds_an_evicted_context(self, monkeypatch):
        monkeypatch.setattr(repro.lru, "CAPACITY", 1)
        session = Session()
        results = [
            session.plan("alexnet", platform, verify=False)
            for platform in ("intel-haswell", "arm-cortex-a57", "intel-haswell")
        ]
        platforms = [r.network_plan.platform_name for r in results]
        assert platforms == ["intel-haswell", "arm-cortex-a57", "intel-haswell"]
        assert [r.from_cache for r in results] == [False, False, False]
        info = session.cache_info()
        assert (info.contexts, info.misses, info.hits) == (1, 3, 0)


class TestServiceDocumentsAreBounded:
    def test_capacity_plus_one_documents_leave_capacity(self, monkeypatch):
        monkeypatch.setattr(repro.lru, "CAPACITY", 2)
        app = PlannerApp()
        documents = {}
        for dtype in ("fp32", "fp16", "int8"):
            documents[dtype], cached = app.plan_document(
                "alexnet", "intel-haswell", dtype=dtype
            )
            assert cached is False
        assert len(app.documents) == 2
        status, health = app.handle("GET", "/v1/healthz")
        assert status == 200 and health["cached_documents"] == 2
        # The evicted fp32 document is rebuilt byte-identical.
        rebuilt, cached = app.plan_document("alexnet", "intel-haswell")
        assert cached is False
        assert canonical(rebuilt) == canonical(documents["fp32"])
        counters = app.metrics.snapshot()["counters"]
        assert counters["plan_cache_misses"] == 4
        assert "plan_cache_hits" not in counters
