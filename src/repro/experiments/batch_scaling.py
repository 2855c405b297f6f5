"""Batch-scaling study: how minibatch size shifts the PBQP selections.

The paper restricts its evaluation to batch size 1 (latency-sensitive
inference) but notes that minibatching is one more integer parameter of the
formulation.  With the batch threaded through the whole system (scenario,
cost model, store and executor), this harness asks the follow-up question:
*does the optimal instantiation change as the batch grows?*

For each batch size the study produces two plans against the same batched
cost tables:

* the **PBQP plan at that batch** — a fresh selection over the batched costs;
* the **replayed batch-1 plan** — the primitives and layouts the selector
  chose at batch 1, re-priced (legalized) at the larger batch.  This is what
  a deployment that profiles once at batch 1 and then serves minibatches
  would actually run.

The gap between the two is the price of ignoring the batch dimension during
selection, and the per-layer differences show *which* primitives overtake
which: fixed per-call setup (patch-matrix packing, Winograd/FFT transforms,
kernel spectra) amortizes over the batch, so transform/GEMM-heavy families
gain on the direct loops as the batch grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.core.legalize import finalize_plan
from repro.core.plan import NetworkPlan
from repro.cost.platform import PLATFORMS, Platform

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import Session
    from repro.core.selector import SelectionContext

#: The batch sizes swept by default (1 is the paper's setting).
DEFAULT_BATCHES: Tuple[int, ...] = (1, 4, 16, 64)


def replay_plan(
    context: "SelectionContext", base_plan: NetworkPlan, strategy: str = "replay"
) -> NetworkPlan:
    """Re-price a plan's choices under another context's cost tables.

    Keeps every per-layer choice of ``base_plan`` — the convolution
    primitives and the layouts of the non-convolution layers — and legalizes
    them against ``context`` (typically the same network priced at a
    different batch size), so the returned plan carries the costs that fixed
    assignment would incur there.
    """
    conv_primitives = base_plan.conv_selections()
    wildcard_layouts = {
        name: decision.output_layout
        for name, decision in base_plan.layer_decisions.items()
        if decision.primitive is None
    }
    return finalize_plan(context, strategy, conv_primitives, wildcard_layouts)


@dataclass
class BatchPoint:
    """The two plans (and their divergence) for one batch size."""

    batch: int
    #: Fresh PBQP selection over the batch-``batch`` cost tables.
    pbqp_plan: NetworkPlan
    #: The batch-1 PBQP plan re-priced at this batch.
    replayed_plan: NetworkPlan
    #: Convolution layers where the fresh selection differs from batch 1,
    #: mapped to (batch-1 primitive, batch-``batch`` primitive).
    selection_changes: Dict[str, Tuple[str, str]] = field(default_factory=dict)

    @property
    def pbqp_ms(self) -> float:
        return self.pbqp_plan.total_ms

    @property
    def replayed_ms(self) -> float:
        return self.replayed_plan.total_ms

    @property
    def pbqp_per_image_ms(self) -> float:
        return self.pbqp_plan.per_image_ms

    @property
    def advantage(self) -> float:
        """Speedup of re-selecting at this batch over replaying the batch-1 plan."""
        return self.replayed_ms / self.pbqp_ms


@dataclass
class BatchScalingResult:
    """The whole sweep for one (network, platform, threads)."""

    network: str
    platform: str
    threads: int
    points: List[BatchPoint] = field(default_factory=list)

    def point(self, batch: int) -> BatchPoint:
        for point in self.points:
            if point.batch == batch:
                return point
        raise KeyError(f"no batch {batch} in this sweep")

    def format(self) -> str:
        """Render the sweep as a table plus the per-layer divergences."""
        header = (
            f"{'batch':>6}{'pbqp ms':>12}{'replay ms':>12}"
            f"{'pbqp ms/img':>13}{'advantage':>11}{'changed':>9}"
        )
        lines = [
            f"Batch scaling — {self.network} on {self.platform} "
            f"({self.threads} thread{'s' if self.threads != 1 else ''})",
            header,
            "-" * len(header),
        ]
        for point in self.points:
            lines.append(
                f"{point.batch:>6}{point.pbqp_ms:>12.2f}{point.replayed_ms:>12.2f}"
                f"{point.pbqp_per_image_ms:>13.3f}{point.advantage:>10.3f}x"
                f"{len(point.selection_changes):>9}"
            )
        lines.append(
            "(replay = the batch-1 PBQP plan re-priced at each batch; "
            "advantage = replay / pbqp)"
        )
        for point in self.points:
            for layer, (before, after) in sorted(point.selection_changes.items()):
                lines.append(f"  batch {point.batch:>3}: {layer:<20} {before} -> {after}")
        return "\n".join(lines)


def run_batch_scaling(
    model_name: str,
    platform: Platform,
    batches: Sequence[int] = DEFAULT_BATCHES,
    threads: int = 1,
    session: Optional["Session"] = None,
) -> BatchScalingResult:
    """Sweep batch sizes for one network/platform, comparing fresh vs replayed plans.

    Pass a shared :class:`repro.api.Session` to reuse profiled contexts (the
    batch-1 context is shared with every other harness).
    """
    if session is None:
        from repro.api import Session

        session = Session()
    if 1 not in batches:
        batches = (1,) + tuple(batches)
    base = session.plan(
        model_name, platform, threads=threads, batch=1, verify=False
    ).network_plan
    base_selection = base.conv_selections()

    result = BatchScalingResult(
        network=model_name, platform=platform.name, threads=threads
    )
    for batch in batches:
        fresh = session.plan(
            model_name, platform, threads=threads, batch=batch, verify=False
        ).network_plan
        context = session.context_for(model_name, platform, threads, batch)
        replayed = base if batch == 1 else replay_plan(context, base)
        changes = {
            layer: (base_selection[layer], primitive)
            for layer, primitive in fresh.conv_selections().items()
            if base_selection[layer] != primitive
        }
        result.points.append(
            BatchPoint(
                batch=batch,
                pbqp_plan=fresh,
                replayed_plan=replayed,
                selection_changes=changes,
            )
        )
    return result


def main() -> None:  # pragma: no cover - manual study entry point
    """Run the sweep on both modelled platforms and print the tables."""
    from repro.api import Session

    session = Session()
    for platform_name in ("intel-haswell", "arm-cortex-a57"):
        result = run_batch_scaling(
            "alexnet", PLATFORMS[platform_name], session=session
        )
        print(result.format())
        print()


if __name__ == "__main__":  # pragma: no cover
    main()
