"""Tests for the platform registry: registration, CLI routing, serialization."""

import dataclasses
import json

import pytest

from repro.api import Session
from repro.cli import main
from repro.cost.platform import (
    PLATFORM_REGISTRY_VERSION,
    PLATFORMS,
    Platform,
    get_platform,
    intel_haswell,
    list_platforms,
    platform_version,
    register_platform,
    unregister_platform,
)
from repro.cost.serialize import load_plan, save_plan
from tests.conftest import build_tiny_network


def make_platform(name: str = "test-part", **overrides) -> Platform:
    """A valid platform for registration tests (Haswell numbers, new name)."""
    return dataclasses.replace(intel_haswell, name=name, **overrides)


@pytest.fixture
def scratch_platform():
    """Register a throwaway platform and always unregister it afterwards."""
    platform = register_platform(make_platform())
    yield platform
    unregister_platform(platform.name)


class TestRegistry:
    def test_builtin_zoo_has_at_least_four_platforms(self):
        names = list_platforms()
        assert len(names) >= 4
        assert {"intel-haswell", "arm-cortex-a57", "avx512-server", "gpu-sim"} <= set(
            names
        )

    def test_registration_round_trip(self, scratch_platform):
        assert "test-part" in list_platforms()
        assert get_platform("test-part") is scratch_platform
        assert PLATFORMS["test-part"] is scratch_platform

    def test_unregister_removes_and_returns(self):
        platform = register_platform(make_platform("fleeting-part"))
        assert unregister_platform("fleeting-part") is platform
        assert "fleeting-part" not in list_platforms()
        with pytest.raises(KeyError, match="unknown platform 'fleeting-part'"):
            unregister_platform("fleeting-part")

    def test_duplicate_name_rejected(self, scratch_platform):
        with pytest.raises(ValueError, match="duplicate platform name 'test-part'"):
            register_platform(make_platform())
        # The built-ins are protected the same way.
        with pytest.raises(ValueError, match="duplicate"):
            register_platform(make_platform("intel-haswell"))

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty name"):
            register_platform(make_platform(""))

    def test_register_accepts_factory_decorator_style(self):
        @register_platform
        def _factory() -> Platform:
            return make_platform("decorated-part")

        try:
            # The decorator returns the *platform*, not the factory.
            assert isinstance(_factory, Platform)
            assert get_platform("decorated-part") is _factory
        finally:
            unregister_platform("decorated-part")

    def test_unknown_platform_error_lists_registered_names(self):
        with pytest.raises(KeyError) as excinfo:
            get_platform("pdp-11")
        message = excinfo.value.args[0]
        assert "unknown platform 'pdp-11'" in message
        for name in ("intel-haswell", "avx512-server", "gpu-sim"):
            assert name in message

    def test_session_resolves_registered_platform(self, scratch_platform):
        session = Session()
        assert session._resolve_platform("test-part") is scratch_platform
        with pytest.raises(KeyError, match="registered platforms"):
            session._resolve_platform("not-a-platform")


class TestPlatformVersioning:
    def test_digest_stable_and_parameter_sensitive(self):
        assert intel_haswell.digest() == intel_haswell.digest()
        tweaked = dataclasses.replace(intel_haswell, dram_bandwidth_gbps=22.0)
        assert tweaked.digest() != intel_haswell.digest()
        renamed = dataclasses.replace(intel_haswell, name="other")
        assert renamed.digest() != intel_haswell.digest()

    def test_platform_version_carries_registry_version(self):
        version = platform_version(intel_haswell)
        assert version.startswith(f"{PLATFORM_REGISTRY_VERSION}:")
        assert version.endswith(intel_haswell.digest())

    def test_same_name_other_numbers_gets_its_own_context(self):
        """In-process caches key a platform by value, not by name."""
        session = Session()
        registered = session.plan("alexnet", "intel-haswell", verify=False)
        faster = dataclasses.replace(intel_haswell, frequency_ghz=4 * intel_haswell.frequency_ghz)
        result = session.plan("alexnet", faster, verify=False)
        assert not result.from_cache
        assert result.total_ms == Session().plan("alexnet", faster, verify=False).total_ms
        assert result.total_ms < registered.total_ms
        again = session.plan("alexnet", "intel-haswell", verify=False)
        assert again.from_cache
        assert again.total_ms == registered.total_ms

    def test_store_key_carries_platform_version(self, tmp_path):
        from repro.cost.store import CostStore

        session = Session(cache_dir=tmp_path)
        session.plan(build_tiny_network(), "gpu-sim", verify=False)
        store = session.store
        assert isinstance(store, CostStore)
        entries = store.entries()
        assert entries, "selection should have persisted a table entry"
        key = entries[0].key
        assert key.platform == "gpu-sim"
        assert key.platform_version == platform_version(get_platform("gpu-sim"))

    def test_editing_platform_numbers_misses_stale_entry(self, tmp_path):
        """Same name, different parameters: the store must not serve the tables."""
        session = Session(cache_dir=tmp_path)
        network = build_tiny_network()
        register_platform(make_platform("mutable-part"))
        try:
            session.plan(network, "mutable-part", verify=False)
            store = session.store
            assert store.stats().misses == 1
            unregister_platform("mutable-part")
            register_platform(
                make_platform("mutable-part", dram_bandwidth_gbps=400.0)
            )
            fresh = Session(cache_dir=tmp_path)
            fresh.plan(network, "mutable-part", verify=False)
            assert fresh.store.stats().misses == 1  # not served from the stale entry
        finally:
            unregister_platform("mutable-part")


class TestFeatureGating:
    def test_has_feature(self):
        assert get_platform("gpu-sim").has_feature("simt")
        assert not intel_haswell.has_feature("simt")
        assert get_platform("avx512-server").has_feature("avx512")

    def test_simt_platform_prunes_row_streaming_variants(self, library):
        from repro.graph.scenario import ConvScenario

        scenario = ConvScenario(c=16, h=16, w=16, stride=1, k=3, m=16, padding=1)
        gpu = get_platform("gpu-sim")
        everywhere = {p.name for p in library.applicable(scenario)}
        on_gpu = {p.name for p in library.applicable(scenario, platform=gpu)}
        pruned = everywhere - on_gpu
        assert pruned, "the SIMT platform should decline some CPU-only variants"
        assert all(name.startswith(("winograd_1d", "fft_1d")) for name in pruned)
        # CPU platforms keep the full menu.
        assert {
            p.name for p in library.applicable(scenario, platform=intel_haswell)
        } == everywhere


class TestCLIPlatforms:
    def test_platforms_subcommand_lists_the_zoo(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        for name in ("intel-haswell", "arm-cortex-a57", "avx512-server", "gpu-sim"):
            assert name in out
        # Calibration factors are part of the listing.
        assert "derate" in out and "launch" in out and "simt" in out

    def test_unknown_platform_exits_with_registered_names(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["select", "alexnet", "--platform", "pdp-11"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown platform 'pdp-11'" in err
        assert "avx512-server" in err and "intel-haswell" in err

    def test_tables_rejects_unknown_platform_helpfully(self, capsys):
        with pytest.raises(SystemExit):
            main(["tables", "--platform", "vax-780"])
        assert "registered platforms" in capsys.readouterr().err

    def test_select_works_on_new_platforms(self, capsys):
        for platform in ("avx512-server", "gpu-sim"):
            assert main(["select", "alexnet", "--platform", platform]) == 0
            out = capsys.readouterr().out
            assert f"on {platform}" in out
            assert "speedup over single-threaded SUM2D baseline" in out

    def test_registered_platform_accepted_by_cli(self, capsys):
        register_platform(make_platform("cli-part"))
        try:
            assert main(["platforms"]) == 0
            assert "cli-part" in capsys.readouterr().out
            assert main(["select", "alexnet", "--platform", "cli-part"]) == 0
        finally:
            unregister_platform("cli-part")


class TestPlanSerializationWithNewPlatforms:
    @pytest.mark.parametrize("platform", ["avx512-server", "gpu-sim"])
    def test_plan_round_trip_preserves_new_platform_names(
        self, platform, dt_graph, tmp_path
    ):
        session = Session()
        network = build_tiny_network()
        plan_handle = session.plan(network, platform)
        path = tmp_path / f"{platform}.json"
        plan_handle.save(path)
        document = json.loads(path.read_text())
        assert document["platform"] == platform
        loaded = load_plan(path, session.dt_graph)
        assert loaded.platform_name == platform
        assert loaded.conv_selections() == plan_handle.network_plan.conv_selections()
        assert loaded.total_cost == pytest.approx(plan_handle.network_plan.total_cost)

    def test_saved_plan_executes_through_session(self, tmp_path):
        session = Session()
        network = build_tiny_network()
        plan_handle = session.plan(network, "gpu-sim")
        path = tmp_path / "gpu_plan.json"
        save_plan(plan_handle.network_plan, path)
        reloaded = session.plan_from_file(path, network=network)
        report = reloaded.execute()
        assert report.platform == "gpu-sim"
        assert report.measured_total_ms > 0
