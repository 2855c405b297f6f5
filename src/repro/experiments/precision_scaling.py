"""Precision-scaling study: how numeric precision shifts the PBQP selections.

The paper prices every primitive in fp32.  With dtype threaded through the
whole system (scenario, primitives, cost model, store, frontier and
executor), this harness asks the follow-up question the quantization era
makes unavoidable: *is the optimal int8 instantiation the quantized fp32
plan?*

For each precision the study produces two plans against the same
precision-priced cost tables:

* the **PBQP plan at that precision** — a fresh selection over tables priced
  with the precision's lane widths, traffic and capability gates;
* the **quantized replay** — the primitives and layouts the selector chose
  at fp32, re-priced (legalized) under the narrow-precision tables.  This is
  what a deployment that selects once in fp32 and then "just quantizes"
  would actually run.

The gap between the two is the price of quantizing after selection instead
of selecting under quantization.  It is nonzero for a structural reason: the
int8 lane-packing features (``vnni``/``dotprod``) quadruple the arithmetic
rate of the GEMM-style families but not the plain loops, FFT declines int8
outright, and Winograd's int8 numerical fragility is priced as an accuracy
penalty — so the relative order of the families changes, and with it the
whole-network optimum.

The frontier section exercises the third axis end-to-end: with
``accuracy_proxy`` as a fourth objective, :meth:`Session.plan_frontier`
spans all precisions and must place an int8 plan at min-time and the fp32
plan at max-accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.cost.platform import PLATFORMS, Platform
from repro.experiments.batch_scaling import replay_plan
from repro.core.plan import NetworkPlan
from repro.graph.scenario import DTYPES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import Session
    from repro.multiobj.frontier import ParetoFrontier

#: The precisions swept by default (fp32 is the paper's setting).
DEFAULT_DTYPES: Tuple[str, ...] = DTYPES


@dataclass
class PrecisionPoint:
    """The two plans (and their divergence) for one precision."""

    dtype: str
    #: Fresh PBQP selection over the precision-priced cost tables.
    pbqp_plan: NetworkPlan
    #: The fp32 PBQP plan re-priced (quantized post hoc) at this precision.
    replayed_plan: NetworkPlan
    #: Convolution layers where the fresh selection differs from fp32,
    #: mapped to (fp32 primitive, this-precision primitive).
    selection_changes: Dict[str, Tuple[str, str]] = field(default_factory=dict)

    @property
    def pbqp_ms(self) -> float:
        return self.pbqp_plan.total_ms

    @property
    def replayed_ms(self) -> float:
        return self.replayed_plan.total_ms

    @property
    def accuracy_proxy(self) -> float:
        """Modelled accuracy loss of the fresh plan (sum of per-layer losses)."""
        return self.pbqp_plan.accuracy_proxy

    @property
    def advantage(self) -> float:
        """Speedup of selecting under this precision over quantizing the fp32 plan."""
        return self.replayed_ms / self.pbqp_ms


@dataclass
class PrecisionScalingResult:
    """The whole sweep for one (network, platform, threads)."""

    network: str
    platform: str
    threads: int
    points: List[PrecisionPoint] = field(default_factory=list)

    def point(self, dtype: str) -> PrecisionPoint:
        for point in self.points:
            if point.dtype == dtype:
                return point
        raise KeyError(f"no dtype {dtype!r} in this sweep")

    def format(self) -> str:
        """Render the sweep as a table plus the per-layer divergences."""
        header = (
            f"{'dtype':>6}{'pbqp ms':>12}{'replay ms':>12}"
            f"{'advantage':>11}{'acc loss':>10}{'changed':>9}"
        )
        lines = [
            f"Precision scaling — {self.network} on {self.platform} "
            f"({self.threads} thread{'s' if self.threads != 1 else ''})",
            header,
            "-" * len(header),
        ]
        for point in self.points:
            lines.append(
                f"{point.dtype:>6}{point.pbqp_ms:>12.2f}{point.replayed_ms:>12.2f}"
                f"{point.advantage:>10.3f}x{point.accuracy_proxy:>10.5f}"
                f"{len(point.selection_changes):>9}"
            )
        lines.append(
            "(replay = the fp32 PBQP plan re-priced at each precision; "
            "advantage = replay / pbqp)"
        )
        for point in self.points:
            for layer, (before, after) in sorted(point.selection_changes.items()):
                lines.append(f"  {point.dtype:>5}: {layer:<20} {before} -> {after}")
        return "\n".join(lines)


def run_precision_scaling(
    model_name: str,
    platform: Platform,
    dtypes: Sequence[str] = DEFAULT_DTYPES,
    threads: int = 1,
    session: Optional["Session"] = None,
) -> PrecisionScalingResult:
    """Sweep precisions for one network/platform, comparing fresh vs replayed plans.

    Pass a shared :class:`repro.api.Session` to reuse profiled contexts (the
    fp32 context is shared with every other harness).
    """
    if session is None:
        from repro.api import Session

        session = Session()
    if "fp32" not in dtypes:
        dtypes = ("fp32",) + tuple(dtypes)
    base = session.plan(
        model_name, platform, threads=threads, dtype="fp32", verify=False
    ).network_plan
    base_selection = base.conv_selections()

    result = PrecisionScalingResult(
        network=model_name, platform=platform.name, threads=threads
    )
    for dtype in dtypes:
        fresh = session.plan(
            model_name, platform, threads=threads, dtype=dtype, verify=False
        ).network_plan
        context = session.context_for(model_name, platform, threads, 1, dtype)
        replayed = (
            base
            if dtype == "fp32"
            else replay_plan(context, base, strategy="quantized-replay")
        )
        changes = {
            layer: (base_selection[layer], primitive)
            for layer, primitive in fresh.conv_selections().items()
            if base_selection[layer] != primitive
        }
        result.points.append(
            PrecisionPoint(
                dtype=dtype,
                pbqp_plan=fresh,
                replayed_plan=replayed,
                selection_changes=changes,
            )
        )
    return result


def frontier_endpoints(frontier: "ParetoFrontier") -> Tuple[str, str]:
    """The dtypes of a frontier's min-time and min-accuracy-loss points."""
    fastest = min(frontier.points, key=lambda point: point.vector.time_ms)
    most_accurate = min(
        frontier.points, key=lambda point: (point.vector.accuracy_proxy, point.vector.time_ms)
    )
    return fastest.plan.dtype, most_accurate.plan.dtype


def main() -> None:  # pragma: no cover - manual study entry point
    """Run the sweep on the lane-packing platforms and print the tables."""
    from repro.api import Session

    session = Session()
    for platform_name in ("avx512-server", "arm-cortex-a57"):
        result = run_precision_scaling(
            "googlenet", PLATFORMS[platform_name], session=session
        )
        print(result.format())
        print()
    frontier = session.plan_frontier("googlenet", "avx512-server")
    print(frontier.format())
    fastest_dtype, most_accurate_dtype = frontier_endpoints(frontier)
    print(
        f"frontier endpoints: min-time is {fastest_dtype}, "
        f"max-accuracy is {most_accurate_dtype}"
    )


if __name__ == "__main__":  # pragma: no cover
    main()
