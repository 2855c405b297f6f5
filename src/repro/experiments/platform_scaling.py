"""Platform-zoo study: how the modelled platform shifts the PBQP selections.

The paper's central claim is that the best primitive/layout mix is *platform
dependent* — its Haswell and Cortex-A57 machines disagree on most layers of
Figure 4.  With the platform registry (:mod:`repro.cost.platform`) the claim
can be probed over a whole zoo: this harness sweeps every network over every
registered platform (by default) at several batch sizes, records the fresh
PBQP selection on each, and reports **selection drift** — the layers whose
selected algorithm *family* on one platform differs from the family selected
on *every* CPU baseline platform at the same batch.

Headline expectations encoded by ``benchmarks/test_bench_platform_zoo.py``:

* the GPU-shaped platform pushes selections into the transform/GEMM families
  even at batch 1 (direct loops occupy the SIMT lanes poorly), and its
  launch-bound small layers reward whole-graph selection over the
  per-layer-greedy cuDNN comparator;
* the AVX-512 server part — with its bigger last-level cache and far higher
  memory bandwidth — tolerates more layout churn and larger transformed-
  domain working sets than Haswell, widening the batch-amortization drift
  found in the PR-4 batch-scaling study.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.core.plan import NetworkPlan
from repro.cost.platform import list_platforms

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import ModelLike, Session

#: Default network sweep: the paper's two smallest figures plus the post-paper
#: zoo extension (residual and depthwise-separable structure).
DEFAULT_NETWORKS: Tuple[str, ...] = ("alexnet", "googlenet", "resnet18", "mobilenet_v1")

#: Batch sizes swept by default: the paper's latency setting and one
#: throughput setting (where PR-4 found the CPU selections drifting).
DEFAULT_BATCHES: Tuple[int, ...] = (1, 16)

#: The paper's two CPU platforms: the drift baselines.
CPU_BASELINES: Tuple[str, str] = ("intel-haswell", "arm-cortex-a57")


@dataclass
class PlatformCell:
    """One fresh PBQP selection: (network, platform, batch)."""

    network: str
    platform: str
    batch: int
    plan: NetworkPlan
    #: Convolution layer name -> selected algorithm family (``"im2"``, ...).
    families: Dict[str, str] = field(default_factory=dict)

    @property
    def total_ms(self) -> float:
        return self.plan.total_ms

    @property
    def per_image_ms(self) -> float:
        return self.plan.per_image_ms

    def family_histogram(self) -> Dict[str, int]:
        """How many layers each family won on this cell."""
        return Counter(self.families.values())


@dataclass
class PlatformScalingResult:
    """The whole sweep: networks x platforms x batches."""

    networks: List[str]
    platforms: List[str]
    batches: List[int]
    threads: int
    cells: List[PlatformCell] = field(default_factory=list)
    #: Platforms used as the drift baselines (present in ``platforms``).
    baselines: Tuple[str, ...] = CPU_BASELINES

    def cell(self, network: str, platform: str, batch: int) -> PlatformCell:
        for cell in self.cells:
            if (
                cell.network == network
                and cell.platform == platform
                and cell.batch == batch
            ):
                return cell
        raise KeyError(f"no cell ({network!r}, {platform!r}, batch {batch})")

    def drift_layers(
        self, network: str, platform: str, batch: int
    ) -> Dict[str, Tuple[str, Dict[str, str]]]:
        """Layers whose family differs from *every* CPU baseline's choice.

        Returns ``layer -> (family on platform, {baseline -> its family})``
        for each convolution layer where the platform's selected family
        matches none of the baselines at the same batch.
        """
        target = self.cell(network, platform, batch)
        baseline_cells = [
            self.cell(network, name, batch)
            for name in self.baselines
            if name != platform
        ]
        drifted: Dict[str, Tuple[str, Dict[str, str]]] = {}
        for layer, family in target.families.items():
            others = {cell.platform: cell.families[layer] for cell in baseline_cells}
            if others and all(family != other for other in others.values()):
                drifted[layer] = (family, others)
        return drifted

    def drift_count(self, network: str, platform: str, batch: int) -> int:
        """Number of layers drifted away from both CPU baselines."""
        return len(self.drift_layers(network, platform, batch))

    def format(self) -> str:
        """Render the sweep: one drift table per (network, batch)."""
        lines: List[str] = []
        plural = "s" if self.threads != 1 else ""
        lines.append(
            f"Platform scaling — {len(self.platforms)} platforms, "
            f"{self.threads} thread{plural} "
            f"(drift = layers whose family differs from both CPU baselines)"
        )
        header = (
            f"  {'platform':<16}{'total ms':>11}{'ms/img':>9}{'drift':>7}  families"
        )
        for network in self.networks:
            for batch in self.batches:
                lines.append(f"{network}, batch {batch}:")
                lines.append(header)
                lines.append("  " + "-" * (len(header) - 2))
                for platform in self.platforms:
                    cell = self.cell(network, platform, batch)
                    histogram = ", ".join(
                        f"{family}:{count}"
                        for family, count in sorted(cell.family_histogram().items())
                    )
                    drift = (
                        "-"
                        if platform in self.baselines
                        else str(self.drift_count(network, platform, batch))
                    )
                    lines.append(
                        f"  {platform:<16}{cell.total_ms:>11.2f}"
                        f"{cell.per_image_ms:>9.3f}{drift:>7}  {histogram}"
                    )
        return "\n".join(lines)


def run_platform_scaling(
    networks: Sequence["ModelLike"] = DEFAULT_NETWORKS,
    platform_names: Optional[Sequence[str]] = None,
    batches: Sequence[int] = DEFAULT_BATCHES,
    threads: int = 1,
    session: Optional["Session"] = None,
) -> PlatformScalingResult:
    """Sweep networks x platforms x batches with fresh PBQP selections.

    ``platform_names`` defaults to every registered platform; the CPU
    baseline platforms are always included (drift is measured against them).
    Pass a shared :class:`repro.api.Session` to reuse profiled contexts
    across harnesses (and, with a session ``cache_dir``, across processes).
    """
    if session is None:
        from repro.api import Session

        session = Session()
    names = list(platform_names) if platform_names is not None else list_platforms()
    for baseline in CPU_BASELINES:
        if baseline not in names:
            names.append(baseline)

    library = session.library
    network_names = [
        network if isinstance(network, str) else network.name for network in networks
    ]
    result = PlatformScalingResult(
        networks=network_names,
        platforms=names,
        batches=list(batches),
        threads=threads,
    )
    for network, network_name in zip(networks, network_names):
        for platform in names:
            for batch in batches:
                selected = session.plan(
                    network, platform, threads=threads, batch=batch, verify=False
                ).network_plan
                result.cells.append(
                    PlatformCell(
                        network=network_name,
                        platform=platform,
                        batch=batch,
                        plan=selected,
                        families=selected.conv_families(library),
                    )
                )
    return result
