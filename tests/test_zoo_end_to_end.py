"""End-to-end acceptance of the residual/depthwise zoo extension.

The executable claims: selection runs end-to-end for the residual and
depthwise-separable models (API and CLI) — ResNet-18/50 and
MobileNet-v1/v2 — the PBQP-selected instantiation computes the same
function as the all-SUM2D reference, and PBQP is at least as fast as every
single-primitive-family baseline on all four networks.  Execution tests
use width-scaled builds (identical structure, every layer kind and both
depthwise stride cases included) to keep the reference execution cheap.
"""

import numpy as np
import pytest

from repro.api import Session
from repro.cli import main
from repro.models import (
    build_mobilenet_v1,
    build_mobilenet_v2,
    build_resnet18,
    build_resnet50,
)

FAMILY_STRATEGIES = ("direct", "im2", "kn2", "winograd", "fft")


@pytest.fixture(scope="module")
def session(library, dt_graph):
    return Session(library=library, dt_graph=dt_graph)


class TestExecutionMatchesReference:
    @pytest.mark.parametrize("strategy", ["pbqp", "local_optimal", "winograd"])
    def test_scaled_resnet18(self, session, strategy):
        network = build_resnet18(input_size=64, base_width=8)
        self._check(session, network, strategy)

    @pytest.mark.parametrize("strategy", ["pbqp", "local_optimal", "im2"])
    def test_scaled_mobilenet_v1(self, session, strategy):
        network = build_mobilenet_v1(input_size=64, width_multiplier=0.125)
        self._check(session, network, strategy)

    @pytest.mark.parametrize("strategy", ["pbqp", "local_optimal"])
    def test_scaled_resnet50(self, session, strategy):
        network = build_resnet50(input_size=64, base_width=8)
        self._check(session, network, strategy)

    @pytest.mark.parametrize("strategy", ["pbqp", "local_optimal"])
    def test_scaled_mobilenet_v2(self, session, strategy):
        network = build_mobilenet_v2(input_size=64, width_multiplier=0.125)
        self._check(session, network, strategy)

    @staticmethod
    def _check(session, network, strategy):
        x = np.random.default_rng(2).standard_normal((3, 64, 64)).astype(np.float32)
        reference = session.plan(network, "intel-haswell", strategy="sum2d")
        plan = session.plan(network, "intel-haswell", strategy=strategy)
        out_ref = reference.execute(input=x, seed=7).output
        out = plan.execute(input=x, seed=7).output
        np.testing.assert_allclose(out, out_ref, rtol=1e-3, atol=1e-4)


class TestPBQPDominates:
    @pytest.mark.parametrize(
        "model", ["resnet18", "resnet50", "mobilenet_v1", "mobilenet_v2"]
    )
    @pytest.mark.parametrize("platform", ["intel-haswell", "arm-cortex-a57"])
    def test_full_size_compare(self, session, model, platform):
        report = session.compare(model, platform)
        by_strategy = {result.strategy: result.total_ms for result in report}
        for strategy in FAMILY_STRATEGIES:
            assert by_strategy["pbqp"] <= by_strategy[strategy] + 1e-9, strategy
        assert by_strategy["pbqp"] <= by_strategy["sum2d"]
        assert report.speedup(
            next(r for r in report if r.strategy == "pbqp")
        ) > 1.0


class TestExtendedZooPlans:
    def test_plans_over_the_extended_zoo(self, session):
        requests = [
            ("resnet18", "intel-haswell"),
            ("mobilenet_v1", "intel-haswell"),
            ("resnet18", "arm-cortex-a57"),
            ("mobilenet_v1", "arm-cortex-a57"),
        ]
        results = [session.plan(model, platform, verify=False) for model, platform in requests]
        assert [r.model for r in results] == [
            "resnet18",
            "mobilenet_v1",
            "resnet18",
            "mobilenet_v1",
        ]
        assert all(r.strategy == "pbqp" and r.total_ms > 0 for r in results)


class TestCLINetworkFlag:
    @pytest.mark.parametrize(
        "model", ["resnet18", "resnet50", "mobilenet_v1", "mobilenet_v2"]
    )
    def test_select_with_network_flag(self, model, capsys):
        assert main(["select", "--network", model]) == 0
        out = capsys.readouterr().out
        assert f"Plan for '{model}' [pbqp]" in out
        assert "speedup over single-threaded SUM2D baseline" in out

    def test_compare_with_network_flag(self, capsys):
        assert main(["compare", "--network", "mobilenet_v1"]) == 0
        out = capsys.readouterr().out
        assert "pbqp" in out and "best strategy" in out

    def test_positional_and_flag_must_agree(self, capsys):
        with pytest.raises(SystemExit):
            main(["select", "resnet18", "--network", "mobilenet_v1"])

    def test_network_required(self, capsys):
        with pytest.raises(SystemExit):
            main(["select"])
