"""Memory-budget study: how a peak-workspace cap reshapes the selections.

The frontier's epsilon-constraint generator answers "what is the fastest
plan that fits in X bytes of scratch?" exactly (peak workspace is a max over
layers, so pruning the primitives above the cap encodes the budget in the
PBQP instance).  This harness sweeps that question across the platform zoo:
for each (network, platform) it takes the unconstrained PBQP plan's peak
workspace as the reference, re-solves under caps at fixed fractions of it,
and records which convolution layers *flip* algorithm family to fit.

The expected shape of the answer — encoded by ``tests/test_multiobj.py`` and
reproduced by ``benchmarks/test_bench_frontier.py`` — is the paper's memory
story inverted: the unconstrained selections lean on the scratch-hungry
GEMM/transform families (im2col patch matrices, FFT spectra), so tightening
the cap drives layers toward the direct loops and the low-workspace 1D
Winograd forms, at a measured time cost per budget level.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.core.plan import NetworkPlan
from repro.cost.platform import list_platforms
from repro.multiobj.frontier import solve_under_workspace_cap

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import ModelLike, Session

#: Default network sweep: the two paper networks the issue's memory story
#: names (AlexNet's large early layers, GoogLeNet's many small ones).
DEFAULT_NETWORKS: Tuple[str, ...] = ("alexnet", "googlenet")

#: Caps as fractions of the unconstrained plan's peak workspace.  1.0 is the
#: sanity row (the cap the unconstrained plan already satisfies).
DEFAULT_FRACTIONS: Tuple[float, ...] = (1.0, 0.5, 0.25, 0.1, 0.02)


@dataclass
class BudgetCell:
    """One capped solve: (network, platform, fraction of unconstrained peak)."""

    network: str
    platform: str
    fraction: float
    cap_bytes: float
    #: The fastest plan under the cap, or ``None`` when the cap is infeasible.
    plan: Optional[NetworkPlan]
    #: Convolution layers whose family changed versus the unconstrained plan,
    #: mapped to (unconstrained family, capped family).
    flips: Dict[str, Tuple[str, str]] = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return self.plan is not None

    def family_histogram(self) -> Dict[str, int]:
        """How many flipped layers moved to each family under this cap.

        Only layers in :attr:`flips` count (the table's "flipped to" column);
        a layer that kept its unconstrained family is not counted.
        """
        return Counter(capped for _, capped in self.flips.values())


@dataclass
class MemoryBudgetResult:
    """The whole sweep: networks x platforms x budget fractions."""

    networks: List[str]
    platforms: List[str]
    fractions: List[float]
    threads: int
    batch: int
    cells: List[BudgetCell] = field(default_factory=list)
    #: Unconstrained PBQP plans, keyed by (network, platform).
    baselines: Dict[Tuple[str, str], NetworkPlan] = field(default_factory=dict)

    def cell(self, network: str, platform: str, fraction: float) -> BudgetCell:
        for cell in self.cells:
            if (
                cell.network == network
                and cell.platform == platform
                and cell.fraction == fraction
            ):
                return cell
        raise KeyError(f"no cell ({network!r}, {platform!r}, fraction {fraction})")

    def format(self) -> str:
        """Render one budget table per (network, platform)."""
        lines: List[str] = []
        plural = "s" if self.threads != 1 else ""
        batch = f", batch {self.batch}" if self.batch != 1 else ""
        lines.append(
            f"Memory-budget sweep — caps as fractions of the unconstrained "
            f"peak ({self.threads} thread{plural}{batch})"
        )
        header = (
            f"  {'cap':>6} {'cap KiB':>10} {'time ms':>9} {'peak KiB':>10} "
            f"{'flips':>6}  flipped to"
        )
        for network in self.networks:
            for platform in self.platforms:
                base = self.baselines[(network, platform)]
                lines.append(
                    f"{network} on {platform} (unconstrained: {base.total_ms:.2f} ms, "
                    f"peak {base.peak_workspace_bytes / 1024.0:.0f} KiB):"
                )
                lines.append(header)
                lines.append("  " + "-" * (len(header) - 2))
                for fraction in self.fractions:
                    cell = self.cell(network, platform, fraction)
                    if cell.plan is None:
                        lines.append(
                            f"  {fraction:>6.0%} {cell.cap_bytes / 1024.0:>10.0f} "
                            f"{'infeasible':>27}"
                        )
                        continue
                    histogram = " ".join(
                        f"{family}x{count}"
                        for family, count in sorted(cell.family_histogram().items())
                    )
                    lines.append(
                        f"  {fraction:>6.0%} {cell.cap_bytes / 1024.0:>10.0f} "
                        f"{cell.plan.total_ms:>9.2f} "
                        f"{cell.plan.peak_workspace_bytes / 1024.0:>10.0f} "
                        f"{len(cell.flips):>6}  {histogram or '-'}"
                    )
        return "\n".join(lines)


def run_memory_budget(
    networks: Sequence["ModelLike"] = DEFAULT_NETWORKS,
    platform_names: Optional[Sequence[str]] = None,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    threads: int = 1,
    batch: int = 1,
    session: Optional["Session"] = None,
) -> MemoryBudgetResult:
    """Sweep workspace caps over networks x platforms, tracking family flips.

    ``platform_names`` defaults to every registered platform.  Pass a shared
    :class:`repro.api.Session` to reuse profiled contexts (and, with a
    session ``cache_dir``, to persist the cost tables across processes).
    """
    if session is None:
        from repro.api import Session

        session = Session()
    names = list(platform_names) if platform_names is not None else list_platforms()
    library = session.library
    network_names = [
        network if isinstance(network, str) else network.name for network in networks
    ]

    result = MemoryBudgetResult(
        networks=network_names,
        platforms=names,
        fractions=list(fractions),
        threads=threads,
        batch=batch,
    )
    for network, network_name in zip(networks, network_names):
        for platform in names:
            context = session.context_for(
                network, platform, threads=threads, batch=batch
            )
            base = session.plan(
                network, platform, threads=threads, batch=batch, verify=False
            ).network_plan
            result.baselines[(network_name, platform)] = base
            base_families = base.conv_families(library)
            peak = base.peak_workspace_bytes
            for fraction in fractions:
                cap = fraction * peak
                plan = solve_under_workspace_cap(context, cap)
                flips: Dict[str, Tuple[str, str]] = {}
                if plan is not None:
                    for layer, family in plan.conv_families(library).items():
                        if family != base_families[layer]:
                            flips[layer] = (base_families[layer], family)
                result.cells.append(
                    BudgetCell(
                        network=network_name,
                        platform=platform,
                        fraction=fraction,
                        cap_bytes=cap,
                        plan=plan,
                        flips=flips,
                    )
                )
    return result
