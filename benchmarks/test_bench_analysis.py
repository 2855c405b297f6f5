"""Static-analysis benchmark: verifier and lint wall-time over the zoo.

The verifier gates every ``Session.plan`` call (``verify=True`` is the
default), so its cost is paid on the planning hot path; this benchmark
pins it down and tracks it in the ``BENCH_analysis.json`` trajectory.  The
headline invariants ride along: every freshly planned zoo document verifies
clean (no false positives), and the ResNet-18 fan-out double-pricing delta —
once the known cost-model blind spot this layer was built to surface, fixed
by the fan-out-aware PBQP encoding — stays pinned at zero.
"""

import pytest

from benchmarks.conftest import emit, record_metric, smoke_networks, smoke_skip
from repro.analysis.lint import run_lint
from repro.analysis.plan_verifier import verify_document
from repro.api import Session
from repro.cost.serialize import plan_to_dict

NETWORKS = smoke_networks(["alexnet", "vgg-a", "googlenet", "resnet18", "mobilenet_v1"])

PLATFORM = "intel-haswell"


@pytest.fixture(scope="module")
def session(library):
    return Session(library=library)


@pytest.fixture(scope="module")
def zoo_documents(session):
    # verify=False: the benchmark times verification separately, below.
    return {
        name: plan_to_dict(session.plan(name, PLATFORM, verify=False).network_plan)
        for name in NETWORKS
    }


def test_verifier_walltime_over_zoo(zoo_documents, benchmark):
    def verify_all():
        return [
            verify_document(doc, source=name)
            for name, doc in zoo_documents.items()
        ]

    reports = benchmark.pedantic(verify_all, rounds=5, iterations=1)
    for name, report in zip(zoo_documents, reports):
        assert report.ok, f"{name}: {report.summary()}"

    total_ms = benchmark.stats.stats.mean * 1e3
    record_metric("analysis", "verify_zoo_ms", total_ms)
    record_metric(
        "analysis", "verify_per_plan_ms", total_ms / max(1, len(zoo_documents))
    )
    emit(
        f"Static verification — {len(zoo_documents)} zoo plans on {PLATFORM}\n"
        f"  total          {total_ms:8.2f} ms\n"
        f"  per plan       {total_ms / max(1, len(zoo_documents)):8.2f} ms"
    )


@smoke_skip
def test_fanout_finding_on_resnet18(zoo_documents):
    """Fan-out-aware encoding: the RV140 delta is pinned to zero.

    Before the fan-out-aware PBQP encoding this asserted a *positive*
    double-pricing delta on ResNet-18's shared ``pool1`` chain (1.225 ms on
    intel-haswell); shared chains are now priced once, so the detector — kept
    as a regression tripwire — must stay silent, and the metric trajectory
    records the delta as exactly 0.
    """
    report = verify_document(zoo_documents["resnet18"], source="resnet18")
    fanout = [f for f in report.findings if f.rule == "RV140"]
    assert not fanout, "\n".join(f"  {f.location}: {f.message}" for f in fanout)
    record_metric("analysis", "fanout_delta_ms", 0.0)
    emit("Fan-out double-pricing (resnet18, intel-haswell)\n  delta          0.00 ms")


def test_lint_walltime_over_src(benchmark):
    report = benchmark.pedantic(lambda: run_lint(["src"]), rounds=3, iterations=1)
    assert report.ok, report.summary()
    lint_ms = benchmark.stats.stats.mean * 1e3
    record_metric("analysis", "lint_src_ms", lint_ms)
    emit(f"Project lint — src tree\n  total          {lint_ms:8.2f} ms")
