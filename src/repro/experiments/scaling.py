"""Fresh-versus-replay studies: does a batch-1 fp32 selection still hold?

The paper selects primitives for batch size 1 (latency-sensitive inference)
in fp32, noting that minibatching is one more integer parameter of the
formulation.  With batch and dtype threaded through the whole system
(scenario, primitives, cost model, store and executor), these harnesses ask
the follow-up question along either axis: *does the optimal instantiation
change as the batch grows, or as the precision narrows?*

For each setting a sweep produces two plans against the same cost tables:

* the **PBQP plan at that setting** — a fresh selection over the tables
  priced at that batch or precision;
* the **replayed base plan** — the primitives and layouts the selector chose
  at batch 1 (or in fp32), re-priced (legalized) at that setting.  This is
  what a deployment that profiles once at batch 1, or selects once in fp32
  and then "just quantizes", would actually run.

The gap between the two is the price of ignoring the axis during selection,
and the per-layer differences show *which* primitives overtake which:

* along the batch, fixed per-call setup (patch-matrix packing, Winograd/FFT
  transforms, kernel spectra) amortizes, so transform/GEMM-heavy families
  gain on the direct loops as the batch grows;
* along the precision, the int8 lane-packing features (``vnni``/``dotprod``)
  quadruple the arithmetic rate of the GEMM-style families but not the plain
  loops, FFT declines int8 outright, and Winograd's int8 numerical fragility
  is priced as an accuracy penalty — so the relative order of the families
  changes, and with it the whole-network optimum.

:func:`frontier_endpoints` reads the precision axis off a multi-precision
frontier: with ``accuracy_proxy`` as a fourth objective,
:meth:`Session.plan_frontier` spans all precisions and must place an int8
plan at min-time and the fp32 plan at max-accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union, TYPE_CHECKING

from repro.core.legalize import replay_plan
from repro.core.plan import NetworkPlan
from repro.cost.platform import Platform
from repro.graph.scenario import DTYPES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import Session
    from repro.multiobj.frontier import ParetoFrontier

#: The batch sizes swept by default (1 is the paper's setting).
DEFAULT_BATCHES: Tuple[int, ...] = (1, 4, 16, 64)

#: The precisions swept by default (fp32 is the paper's setting).
DEFAULT_DTYPES: Tuple[str, ...] = DTYPES

#: A value on a sweep's axis: a batch size or a dtype name.
Setting = Union[int, str]


@dataclass
class ScalingPoint:
    """The two plans (and their divergence) for one batch size or precision."""

    #: Fresh PBQP selection over the tables priced at this setting.
    pbqp_plan: NetworkPlan
    #: The base (batch-1 or fp32) PBQP plan re-priced at this setting.
    replayed_plan: NetworkPlan
    #: Convolution layers where the fresh selection differs from the base,
    #: mapped to (base primitive, this-setting primitive).
    selection_changes: Dict[str, Tuple[str, str]] = field(default_factory=dict)

    @property
    def batch(self) -> int:
        return self.pbqp_plan.batch

    @property
    def dtype(self) -> str:
        return self.pbqp_plan.dtype

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
    def accuracy_proxy(self) -> float:
        """Modelled accuracy loss of the fresh plan (sum of per-layer losses)."""
        return self.pbqp_plan.accuracy_proxy

    @property
    def advantage(self) -> float:
        """Speedup of re-selecting at this setting over replaying the base plan."""
        return self.replayed_ms / self.pbqp_ms


@dataclass
class ScalingResult:
    """One sweep along ``axis`` (``"batch"`` or ``"dtype"``) for one network/platform."""

    axis: str
    network: str
    platform: str
    threads: int
    points: List[ScalingPoint] = field(default_factory=list)

    def point(self, setting: Setting) -> ScalingPoint:
        for point in self.points:
            if getattr(point, self.axis) == setting:
                return point
        raise KeyError(f"no {self.axis} {setting!r} in this sweep")

    def format(self) -> str:
        """Render the sweep as a table plus the per-layer divergences."""
        batch = self.axis == "batch"
        per_image = f"{'pbqp ms/img':>13}" if batch else ""
        accuracy = "" if batch else f"{'acc loss':>10}"
        header = (
            f"{self.axis:>6}{'pbqp ms':>12}{'replay ms':>12}"
            f"{per_image}{'advantage':>11}{accuracy}{'changed':>9}"
        )
        lines = [
            f"{'Batch' if batch else 'Precision'} scaling — {self.network} on "
            f"{self.platform} ({self.threads} thread{'s' if self.threads != 1 else ''})",
            header,
            "-" * len(header),
        ]
        for point in self.points:
            per_image = f"{point.pbqp_per_image_ms:>13.3f}" if batch else ""
            accuracy = "" if batch else f"{point.accuracy_proxy:>10.5f}"
            lines.append(
                f"{getattr(point, self.axis):>6}{point.pbqp_ms:>12.2f}"
                f"{point.replayed_ms:>12.2f}{per_image}{point.advantage:>10.3f}x"
                f"{accuracy}{len(point.selection_changes):>9}"
            )
        base, each = ("batch-1", "batch") if batch else ("fp32", "precision")
        lines.append(
            f"(replay = the {base} PBQP plan re-priced at each {each}; "
            "advantage = replay / pbqp)"
        )
        for point in self.points:
            label = f"batch {point.batch:>3}" if batch else f"{point.dtype:>5}"
            for layer, (before, after) in sorted(point.selection_changes.items()):
                lines.append(f"  {label}: {layer:<20} {before} -> {after}")
        return "\n".join(lines)


def _sweep(
    axis: str,
    model_name: str,
    platform: Platform,
    settings: Sequence[Setting],
    base_setting: Setting,
    replay_strategy: str,
    threads: int,
    session: Optional["Session"],
) -> ScalingResult:
    """Plan ``base_setting`` once, then each setting fresh and as a replay of the base."""
    if session is None:
        from repro.api import Session

        session = Session()
    if base_setting not in settings:
        settings = (base_setting,) + tuple(settings)

    def at(setting: Setting) -> Dict[str, Any]:
        """The session keywords that select ``setting`` on the swept axis."""
        return {"threads": threads, axis: setting}

    def plan(setting: Setting) -> NetworkPlan:
        return session.plan(model_name, platform, verify=False, **at(setting)).network_plan

    base = plan(base_setting)
    base_selection = base.conv_selections()
    result = ScalingResult(
        axis=axis, network=model_name, platform=platform.name, threads=threads
    )
    for setting in settings:
        if setting == base_setting:
            result.points.append(ScalingPoint(pbqp_plan=base, replayed_plan=base))
            continue
        fresh = plan(setting)
        context = session.context_for(model_name, platform, **at(setting))
        result.points.append(
            ScalingPoint(
                pbqp_plan=fresh,
                replayed_plan=replay_plan(context, base, strategy=replay_strategy),
                selection_changes={
                    layer: (base_selection[layer], primitive)
                    for layer, primitive in fresh.conv_selections().items()
                    if base_selection[layer] != primitive
                },
            )
        )
    return result


def run_batch_scaling(
    model_name: str,
    platform: Platform,
    batches: Sequence[int] = DEFAULT_BATCHES,
    threads: int = 1,
    session: Optional["Session"] = None,
) -> ScalingResult:
    """Sweep batch sizes for one network/platform, comparing fresh vs replayed plans.

    Pass a shared :class:`repro.api.Session` to reuse profiled contexts (the
    batch-1 context is shared with every other harness).
    """
    return _sweep("batch", model_name, platform, batches, 1, "replay", threads, session)


def run_precision_scaling(
    model_name: str,
    platform: Platform,
    dtypes: Sequence[str] = DEFAULT_DTYPES,
    threads: int = 1,
    session: Optional["Session"] = None,
) -> ScalingResult:
    """Sweep precisions for one network/platform, comparing fresh vs replayed plans.

    Pass a shared :class:`repro.api.Session` to reuse profiled contexts (the
    fp32 context is shared with every other harness).
    """
    return _sweep(
        "dtype", model_name, platform, dtypes, "fp32", "quantized-replay", threads, session
    )


def frontier_endpoints(frontier: "ParetoFrontier") -> Tuple[str, str]:
    """The dtypes of a frontier's min-time and min-accuracy-loss points."""
    fastest = min(frontier.points, key=lambda point: point.vector.time_ms)
    most_accurate = min(
        frontier.points, key=lambda point: (point.vector.accuracy_proxy, point.vector.time_ms)
    )
    return fastest.plan.dtype, most_accurate.plan.dtype
