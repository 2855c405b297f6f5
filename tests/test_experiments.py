"""Tests of the experiment harnesses and of the paper's headline claims.

These are the repository's "does the reproduction reproduce?" tests: each of
the qualitative claims of the evaluation section is asserted against the
analytical platform model.
"""


import pytest

from repro.api import Session
from repro.core.strategies import registered_names
from repro.cost.platform import PLATFORMS
from repro.experiments.ablation import dt_cost_ablation, solver_mode_ablation
from repro.experiments.family_traits import PROBE_SCENARIOS, family_traits_table
from repro.experiments.overhead import format_overhead_report, solver_overhead_report
from repro.experiments.pbqp_example import figure2_example
from repro.experiments.scaling import run_batch_scaling, run_precision_scaling
from repro.experiments.selections import alexnet_selection_comparison
from repro.experiments.tables import (
    COLUMN_STRATEGIES,
    format_absolute_table,
    run_absolute_time_table,
)
from repro.experiments.whole_network import format_speedup_table, run_whole_network


@pytest.fixture(scope="module")
def intel_platform():
    return PLATFORMS["intel-haswell"]


@pytest.fixture(scope="module")
def arm_platform():
    return PLATFORMS["arm-cortex-a57"]


@pytest.fixture(scope="module")
def alexnet_intel_st(intel_platform):
    return run_whole_network("alexnet", intel_platform, threads=1)


@pytest.fixture(scope="module")
def googlenet_arm_st(arm_platform):
    return run_whole_network("googlenet", arm_platform, threads=1)


class TestFigure2Example:
    def test_node_only_solution_is_per_node_minimum(self):
        result = figure2_example()
        assert result.node_only_cost == pytest.approx(37.0)
        assert result.node_only_selection == {"conv1": "B", "conv2": "C", "conv3": "B"}

    def test_edge_costs_solution_is_optimal_and_verified(self):
        result = figure2_example()
        assert result.with_edges_cost == pytest.approx(result.brute_force_cost)
        assert result.with_edges.optimal

    def test_edge_costs_increase_total(self):
        result = figure2_example()
        assert result.with_edges_cost >= result.node_only_cost


class TestWholeNetworkHarness(object):
    def test_result_structure(self, alexnet_intel_st):
        assert alexnet_intel_st.baseline_ms > 0
        speedups = alexnet_intel_st.speedups()
        for strategy in ("direct", "im2", "kn2", "winograd", "fft", "local_optimal", "pbqp"):
            assert strategy in speedups
        assert "mkldnn" in speedups and "armcl" not in speedups

    def test_arm_uses_armcl_instead_of_mkldnn(self, googlenet_arm_st):
        assert "armcl" in googlenet_arm_st.times_ms
        assert "mkldnn" not in googlenet_arm_st.times_ms

    def test_pbqp_is_best_strategy(self, alexnet_intel_st, googlenet_arm_st):
        assert alexnet_intel_st.best_strategy() == "pbqp"
        assert googlenet_arm_st.best_strategy() == "pbqp"

    def test_pbqp_beats_local_optimal_and_vendor(self, alexnet_intel_st):
        speedups = alexnet_intel_st.speedups()
        assert speedups["pbqp"] > speedups["local_optimal"]
        assert speedups["pbqp"] > speedups["mkldnn"]
        assert speedups["pbqp"] > speedups["caffe"]

    def test_every_strategy_at_least_matches_nothing_strange(self, alexnet_intel_st):
        for strategy, milliseconds in alexnet_intel_st.times_ms.items():
            assert milliseconds > 0, strategy

    def test_caffe_slower_than_sum2d_for_googlenet_on_arm(self, googlenet_arm_st):
        """Table 3: Caffe's GoogLeNet time exceeds even the SUM2D baseline on the A57."""
        assert googlenet_arm_st.speedup("caffe") < 1.0

    def test_format_speedup_table(self, alexnet_intel_st):
        text = format_speedup_table([alexnet_intel_st], title="figure 5")
        assert "figure 5" in text and "alexnet" in text and "pbqp" in text

    def test_times_follow_registration_order(self, alexnet_intel_st, googlenet_arm_st):
        for result in (alexnet_intel_st, googlenet_arm_st):
            names = list(result.times_ms)
            assert names == [name for name in registered_names() if name in names]
            assert "sum2d" not in names

    def test_cells_are_session_plans(self, intel_platform):
        session = Session()
        result = run_whole_network("alexnet", intel_platform, threads=4, session=session)
        assert result.baseline_ms == session.baseline("alexnet", intel_platform).total_ms
        assert result.times_ms == {
            name: session.plan(
                "alexnet", intel_platform, name, threads=4, verify=False
            ).total_ms
            for name in result.times_ms
        }

    def test_table_rows_are_session_plans(self, intel_platform):
        session = Session()
        rows = run_absolute_time_table(intel_platform, ["alexnet"], session=session)
        for row in rows:
            assert row.times_ms == {
                column: session.plan(
                    "alexnet", intel_platform, name, threads=row.threads, verify=False
                ).total_ms
                for column, name in COLUMN_STRATEGIES.items()
            }
        assert rows[0].times_ms["SUM2D"] == session.baseline("alexnet", intel_platform).total_ms

    def test_table_leaves_gated_columns_blank(self):
        # Caffe is a CPU framework: a SIMT platform gets no CAFFE column.
        rows = run_absolute_time_table(PLATFORMS["gpu-sim"], ["alexnet"], (1,))
        assert set(rows[0].times_ms) == {"SUM2D", "L.OPT", "PBQP"}
        assert format_absolute_table(rows, "gpu").splitlines()[3].endswith(" -")

    def test_table_skips_thread_counts_above_the_cores(self):
        # gpu-sim has one core: a 4-thread row would repeat the 1-thread row.
        rows = run_absolute_time_table(PLATFORMS["gpu-sim"], ["alexnet"], (1, 4))
        assert [row.threads for row in rows] == [1]


class TestHeadlineClaims:
    def test_winograd_family_wins_vgg_but_not_alexnet(self, intel_platform):
        """Section 5.8: Winograd excels on VGG (all K=3) but is poor for AlexNet/GoogLeNet."""
        vgg = run_whole_network("vgg-b", intel_platform, threads=1)
        alexnet = run_whole_network("alexnet", intel_platform, threads=1)
        assert vgg.speedup("winograd") == pytest.approx(vgg.speedup("pbqp"), rel=0.15)
        assert alexnet.speedup("winograd") < 0.6 * alexnet.speedup("pbqp")

    def test_pbqp_outperforms_mkldnn_multithreaded_on_vgg(self, intel_platform):
        """Figure 6: the PBQP solution outperforms the vendor library by ~2x on VGG MT."""
        result = run_whole_network("vgg-b", intel_platform, threads=4)
        assert result.speedup("pbqp") > 1.5 * result.speedup("mkldnn")

    def test_alexnet_selections_match_figure4_structure(self):
        comparison = alexnet_selection_comparison(threads=4)
        intel_sel = comparison.selections["intel-haswell"]
        arm_sel = comparison.selections["arm-cortex-a57"]
        # conv1 (K=11, stride 4) is an im2-family primitive on both platforms.
        assert intel_sel["conv1"].startswith("im2")
        assert arm_sel["conv1"].startswith("im2")
        # The remaining convolutions are Winograd-family on both platforms.
        for layer in ("conv2", "conv3", "conv4", "conv5"):
            assert "winograd" in intel_sel[layer]
            assert "winograd" in arm_sel[layer]
        # Intel selections use 8-wide variants, ARM selections 4-wide variants.
        assert all("vf8" in intel_sel[layer] for layer in ("conv2", "conv3", "conv4", "conv5"))
        assert all("vf4" in arm_sel[layer] for layer in ("conv2", "conv3", "conv4", "conv5"))
        # The ARM selection prefers the low-memory 1D form for most layers.
        one_d = sum("winograd_1d" in arm_sel[layer] for layer in ("conv2", "conv3", "conv4", "conv5"))
        assert one_d >= 2
        assert all(
            "winograd_2d" in intel_sel[layer] for layer in ("conv2", "conv3", "conv4", "conv5")
        )

    def test_solver_overhead_below_one_second_and_optimal(self):
        """Section 5.4: each network solves in well under a second, provably optimally."""
        entries = solver_overhead_report(networks=["alexnet", "vgg-b", "googlenet"])
        for entry in entries:
            assert entry.solve_seconds < 1.0
            assert entry.optimal
        text = format_overhead_report(entries)
        assert "googlenet" in text

    def test_absolute_time_table_ordering(self, intel_platform):
        """Tables 2/3: SUM2D > L.OPT > PBQP for every network and thread count."""
        rows = run_absolute_time_table(intel_platform, networks=["alexnet"])
        for row in rows:
            assert row.times_ms["SUM2D"] > row.times_ms["L.OPT"] > row.times_ms["PBQP"]
        text = format_absolute_table(rows, title="Table 2")
        assert "(S) alexnet" in text and "(M) alexnet" in text


class TestFamilyTraits:
    @pytest.fixture(scope="class")
    def traits(self, library):
        return family_traits_table(library=library)

    def test_every_probe_scenario_evaluated(self, traits):
        assert set(traits.best_cost) == set(PROBE_SCENARIOS)

    def test_strided_unsupported_by_kn2_winograd_fft(self, traits):
        for family_name in ("kn2", "winograd", "fft"):
            assert traits.best_cost["strided"][family_name] is None
        assert traits.best_cost["strided"]["im2"] is not None

    def test_winograd_fastest_on_k3(self, traits):
        assert traits.fastest_family("k3_mid") == "winograd"

    def test_im2_struggles_on_large_images_relative_to_kn2(self, traits):
        """Table 1: 'large image' is im2's bad case; kn2's low memory wins there."""
        assert traits.best_cost["large_image"]["kn2"] < traits.best_cost["large_image"]["im2"]

    def test_kn2_low_memory(self, traits):
        assert traits.workspace["k3_mid"]["kn2"] < traits.workspace["k3_mid"]["im2"]

    def test_fft_relatively_better_on_k5_than_on_pointwise(self, traits):
        """Table 1: FFT's bad case is a small kernel."""
        k5 = traits.best_cost["k5_layer"]
        pointwise = traits.best_cost["pointwise"]
        fft_vs_best_k5 = k5["fft"] / min(v for v in k5.values() if v is not None)
        fft_vs_best_1x1 = pointwise["fft"] / min(v for v in pointwise.values() if v is not None)
        assert fft_vs_best_k5 < fft_vs_best_1x1

    def test_format(self, traits):
        assert "unsupported" in traits.format()


class TestAblations:
    def test_dt_cost_ablation_scales(self, intel_platform):
        points = dt_cost_ablation(
            model_name="alexnet", platform=intel_platform, scales=(0.0, 1.0, 4.0)
        )
        assert [p.scale for p in points] == [0.0, 1.0, 4.0]
        # With free conversions, greedy per-layer selection matches PBQP.
        assert points[0].pbqp_advantage_over_greedy == pytest.approx(1.0, rel=1e-6)
        # PBQP never loses to either alternative at any scale.
        for point in points:
            assert point.pbqp_advantage_over_greedy >= 1.0 - 1e-9
            assert point.pbqp_advantage_over_local >= 1.0 - 1e-9
        # The advantage over DT-blind greedy grows with the conversion cost.
        assert points[-1].pbqp_advantage_over_greedy >= points[0].pbqp_advantage_over_greedy

    def test_solver_mode_ablation(self, intel_platform):
        results = solver_mode_ablation(networks=["alexnet"], platform=intel_platform)
        (result,) = results
        assert result.exact_provably_optimal
        assert result.heuristic_cost >= result.exact_cost - 1e-12
        assert result.heuristic_gap >= 0.0


class TestPlatformScaling:
    @pytest.fixture(scope="class")
    def sweep(self):
        from repro.api import Session
        from repro.experiments.platform_scaling import run_platform_scaling
        from tests.conftest import build_tiny_network

        # The tiny network keeps the tier-1 suite fast; the full zoo sweep
        # lives in benchmarks/test_bench_platform_zoo.py.
        return run_platform_scaling(
            networks=[build_tiny_network()], batches=(1, 4), session=Session()
        )

    def test_sweep_covers_every_registered_platform(self, sweep):
        from repro.cost.platform import list_platforms

        assert sweep.platforms == list_platforms()
        assert len(sweep.cells) == len(sweep.platforms) * 2  # two batches

    def test_cells_carry_valid_plans_and_families(self, sweep):
        families = {"sum2d", "direct", "im2", "kn2", "winograd", "fft"}
        for cell in sweep.cells:
            assert cell.total_ms > 0
            assert cell.per_image_ms == pytest.approx(cell.total_ms / cell.batch)
            assert cell.families and set(cell.families.values()) <= families
            assert sum(cell.family_histogram().values()) == len(cell.families)

    def test_drift_is_measured_against_both_cpu_baselines(self, sweep):
        for platform in ("avx512-server", "gpu-sim"):
            drifted = sweep.drift_layers("tiny", platform, 1)
            for layer, (family, baselines) in drifted.items():
                assert set(baselines) == {"intel-haswell", "arm-cortex-a57"}
                assert all(family != other for other in baselines.values())
            assert sweep.drift_count("tiny", platform, 1) == len(drifted)

    def test_format_renders_every_platform_row(self, sweep):
        text = sweep.format()
        for platform in sweep.platforms:
            assert platform in text
        assert "drift" in text

    def test_missing_cell_raises(self, sweep):
        with pytest.raises(KeyError):
            sweep.cell("tiny", "gpu-sim", 999)


class TestFreshVersusReplaySweeps:
    """The batch and precision studies: a fresh plan per setting vs the replayed base."""

    #: axis -> (base setting, swept settings, a setting outside the sweep)
    AXES = {"batch": (1, (4,), 2), "dtype": ("fp32", ("int8",), "fp16")}

    @pytest.fixture(scope="class", params=sorted(AXES))
    def sweep(self, request, intel_platform):
        axis = request.param
        _, settings, _ = self.AXES[axis]
        if axis == "batch":
            result = run_batch_scaling("alexnet", intel_platform, batches=settings)
        else:
            result = run_precision_scaling("alexnet", intel_platform, dtypes=settings)
        return axis, result

    def test_base_setting_is_prepended(self, sweep):
        axis, result = sweep
        base, settings, _ = self.AXES[axis]
        assert [getattr(point, axis) for point in result.points] == [base, *settings]

    def test_base_point_replays_itself(self, sweep):
        axis, result = sweep
        point = result.point(self.AXES[axis][0])
        assert point.replayed_plan is point.pbqp_plan
        assert point.advantage == 1.0
        assert not point.selection_changes

    def test_fresh_selection_never_loses_to_the_replay(self, sweep):
        _, result = sweep
        for point in result.points:
            assert point.pbqp_ms <= point.replayed_ms * (1 + 1e-9)

    def test_missing_setting_raises(self, sweep):
        axis, result = sweep
        with pytest.raises(KeyError):
            result.point(self.AXES[axis][2])

    def test_format_has_one_row_per_point(self, sweep):
        _, result = sweep
        lines = result.format().splitlines()
        rule = next(i for i, line in enumerate(lines) if set(line) == {"-"})
        legend = next(i for i, line in enumerate(lines) if line.startswith("(replay"))
        assert legend - rule - 1 == len(result.points)
