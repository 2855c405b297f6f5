"""Network plans: the output of primitive selection.

A :class:`NetworkPlan` records, for one network on one platform / thread
count, which primitive implements each convolution layer, which data layout
each non-convolution layer operates in, which layout-conversion chains are
inserted on which edges (the legalization of section 3 of the paper), and the
resulting cost breakdown.  Plans are produced both by the PBQP selector and by
every baseline strategy, so the whole evaluation compares like with like.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING

from repro.layouts.layout import Layout
from repro.layouts.transforms import TransformChain
from repro.multiobj.vector import CostVector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.primitives.registry import PrimitiveLibrary


def platform_label(platform_name: Optional[str]) -> str:
    """How text output names a plan's platform: platform-less plans say so."""
    return "a platform-less cost model" if platform_name is None else platform_name


@dataclass
class LayerDecision:
    """The selection made for one layer.

    ``primitive`` is the name of the convolution primitive for convolution
    layers and ``None`` for every other layer kind (which the formulation
    treats as zero-cost nodes that simply adopt a layout).
    """

    layer: str
    primitive: Optional[str]
    input_layout: Layout
    output_layout: Layout
    cost: float = 0.0
    note: str = ""
    #: Peak scratch workspace (bytes) of the selected primitive; 0 for
    #: non-convolution layers and for plans predating the vector cost layer.
    workspace_bytes: float = 0.0
    #: Energy proxy (joules) of the selected primitive; 0 when not modelled.
    energy_j: float = 0.0
    #: Modelled accuracy loss of running this layer at the plan's precision;
    #: 0 for fp32 and for plans predating the precision axis.
    accuracy_loss: float = 0.0


@dataclass
class EdgeDecision:
    """The layout-conversion chain inserted on one data-flow edge."""

    producer: str
    consumer: str
    source_layout: Layout
    target_layout: Layout
    chain: Optional[TransformChain]
    cost: float = 0.0
    #: Energy proxy (joules) of the conversion chain; 0 when not modelled.
    energy_j: float = 0.0

    @property
    def needs_conversion(self) -> bool:
        """Whether any transformation is actually executed on this edge."""
        return self.chain is not None and len(self.chain) > 0


def conversion_groups(
    edges: Iterable[EdgeDecision], order: Iterable[str]
) -> Dict[Tuple[str, str], List[EdgeDecision]]:
    """Group the converting edges by the chain they share.

    The executor converts once per (producer, target layout) and reuses the
    result for every other consumer, so those edges form one group keyed by
    ``(producer, target layout name)``.  Each group is sorted by its
    consumers' positions in ``order``, the layer execution order:
    ``members[0]`` is the edge whose consumer triggers the conversion, and it
    carries the chain's cost; the other members reuse its result.
    """
    position = {name: index for index, name in enumerate(order)}
    groups: Dict[Tuple[str, str], List[EdgeDecision]] = {}
    for edge in edges:
        if edge.needs_conversion:
            groups.setdefault((edge.producer, edge.target_layout.name), []).append(edge)
    for members in groups.values():
        members.sort(key=lambda edge: position[edge.consumer])
    return groups


@dataclass
class NetworkPlan:
    """A complete instantiation of a network with primitives and conversions."""

    network_name: str
    strategy: str
    #: A registered platform's name, or ``None`` for a platform-less cost
    #: model (the host profiler, the DT-cost ablation's scaled model).
    platform_name: Optional[str]
    threads: int
    layer_decisions: Dict[str, LayerDecision] = field(default_factory=dict)
    #: Minibatch size the plan's costs describe (1 = the paper's setting).
    batch: int = 1
    #: Numeric precision the plan selects for ("fp32" = the paper's setting).
    dtype: str = "fp32"
    edge_decisions: List[EdgeDecision] = field(default_factory=list)
    #: Extra information recorded by the strategy (e.g. solver statistics).
    metadata: Dict[str, object] = field(default_factory=dict)

    # -- cost breakdown ------------------------------------------------------------

    @property
    def conv_cost(self) -> float:
        """Total cost of the selected convolution primitives, in seconds."""
        return sum(d.cost for d in self.layer_decisions.values())

    @property
    def dt_cost(self) -> float:
        """Total cost of the inserted layout conversions, in seconds."""
        return sum(e.cost for e in self.edge_decisions)

    @property
    def total_cost(self) -> float:
        """Whole-network cost in seconds (convolutions plus conversions)."""
        return self.conv_cost + self.dt_cost

    @property
    def total_ms(self) -> float:
        """Whole-network cost in milliseconds (for the whole batch)."""
        return 1e3 * self.total_cost

    @property
    def per_image_ms(self) -> float:
        """Whole-network cost per image, in milliseconds."""
        return self.total_ms / self.batch

    @property
    def peak_workspace_bytes(self) -> float:
        """Largest per-layer scratch footprint of the plan, in bytes.

        Peak memory is a *max*, not a sum: layers execute sequentially and
        their workspaces are released between layers, so the plan's peak is
        the single worst layer.
        """
        if not self.layer_decisions:
            return 0.0
        return max(d.workspace_bytes for d in self.layer_decisions.values())

    @property
    def energy_proxy_j(self) -> float:
        """Whole-network energy proxy, in joules (primitives plus conversions)."""
        return sum(d.energy_j for d in self.layer_decisions.values()) + sum(
            e.energy_j for e in self.edge_decisions
        )

    @property
    def accuracy_proxy(self) -> float:
        """Whole-network modelled accuracy loss (sum of per-layer losses).

        Quantization noise compounds layer by layer, so losses add; a pure
        fp32 plan reports exactly 0.
        """
        return sum(d.accuracy_loss for d in self.layer_decisions.values())

    def cost_vector(self) -> CostVector:
        """The plan's full (time, workspace, energy, accuracy) objective vector."""
        return CostVector(
            time_ms=self.total_ms,
            peak_workspace_bytes=self.peak_workspace_bytes,
            energy_proxy_j=self.energy_proxy_j,
            accuracy_proxy=self.accuracy_proxy,
        )

    # -- queries --------------------------------------------------------------------

    def decision(self, layer: str) -> LayerDecision:
        """The decision recorded for one layer."""
        return self.layer_decisions[layer]

    def conv_selections(self) -> Dict[str, str]:
        """Mapping from convolution layer name to selected primitive name."""
        return {
            name: decision.primitive
            for name, decision in self.layer_decisions.items()
            if decision.primitive is not None
        }

    def conv_families(self, library: "PrimitiveLibrary") -> Dict[str, str]:
        """Mapping from convolution layer name to its primitive's family (``"im2"``, ...)."""
        return {
            name: library.get(primitive).family.value
            for name, primitive in self.conv_selections().items()
        }

    def conversions(self) -> List[EdgeDecision]:
        """The edges on which a layout conversion is actually executed."""
        return [edge for edge in self.edge_decisions if edge.needs_conversion]

    def speedup_over(self, baseline: "NetworkPlan") -> float:
        """Speedup of this plan relative to a baseline plan."""
        if self.total_cost <= 0:
            raise ValueError("plan has non-positive total cost")
        return baseline.total_cost / self.total_cost

    # -- reporting ---------------------------------------------------------------------

    def summary(self) -> str:
        """Human-readable description of the plan (selection table + cost)."""
        batch = f", batch {self.batch}" if self.batch != 1 else ""
        dtype = f", {self.dtype}" if self.dtype != "fp32" else ""
        per_image = f", {self.per_image_ms:.2f} ms/image" if self.batch != 1 else ""
        platform = platform_label(self.platform_name)
        lines = [
            f"Plan for {self.network_name!r} [{self.strategy}] on {platform} "
            f"({self.threads} thread{'s' if self.threads != 1 else ''}{batch}{dtype})",
            f"  total {self.total_ms:.2f} ms{per_image}  (conv {1e3 * self.conv_cost:.2f} ms, "
            f"layout transforms {1e3 * self.dt_cost:.2f} ms, "
            f"{len(self.conversions())} conversions)",
        ]
        for name, decision in self.layer_decisions.items():
            if decision.primitive is None:
                continue
            lines.append(
                f"    {name:<24} {decision.primitive:<28} "
                f"{decision.input_layout.name}->{decision.output_layout.name}  "
                f"{1e3 * decision.cost:8.3f} ms"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"NetworkPlan({self.network_name!r}, strategy={self.strategy!r}, "
            f"total={self.total_ms:.2f} ms)"
        )
