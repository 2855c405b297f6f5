"""Schedule generation: the textual analogue of the paper's code generator.

The paper "mapped the solution to code with a simple code generator which
emitted calls to primitive operations in our library".  This module produces
the equivalent artifact for a :class:`~repro.core.plan.NetworkPlan`: a linear
schedule of steps (convert / convolve / evaluate) in execution order, which
can be rendered as pseudo-code and is also a convenient structure for tests
to assert properties of a plan (e.g. "no conversions inside the Winograd
region").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.plan import NetworkPlan, platform_label
from repro.graph.network import Network


@dataclass(frozen=True)
class ScheduleStep:
    """One emitted operation of the generated schedule.

    ``kind`` is one of ``"input"``, ``"convert"``, ``"convolution"`` or
    ``"layer"``.
    """

    kind: str
    layer: str
    detail: str

    def render(self) -> str:
        return f"{self.kind:<12} {self.layer:<28} {self.detail}"


def generate_schedule(network: Network, plan: NetworkPlan) -> List[ScheduleStep]:
    """Emit the linear schedule implementing a plan."""
    edge_of = {(e.producer, e.consumer): e for e in plan.edge_decisions}
    steps: List[ScheduleStep] = []
    for layer in network.topological_order():
        decision = plan.decision(layer.name)
        for producer in network.inputs_of(layer.name):
            edge = edge_of[(producer, layer.name)]
            if edge.needs_conversion:
                steps.append(
                    ScheduleStep(
                        kind="convert",
                        layer=layer.name,
                        detail=f"{producer}: {edge.chain.name}",
                    )
                )
        if decision.primitive is not None:
            steps.append(
                ScheduleStep(
                    kind="convolution",
                    layer=layer.name,
                    detail=(
                        f"{decision.primitive} "
                        f"[{decision.input_layout.name}->{decision.output_layout.name}]"
                    ),
                )
            )
        elif not network.inputs_of(layer.name):
            steps.append(
                ScheduleStep(kind="input", layer=layer.name, detail=decision.output_layout.name)
            )
        else:
            steps.append(
                ScheduleStep(
                    kind="layer",
                    layer=layer.name,
                    detail=f"{type(layer).__name__} [{decision.output_layout.name}]",
                )
            )
    return steps


def render_schedule(network: Network, plan: NetworkPlan) -> str:
    """Render the generated schedule as readable pseudo-code."""
    header = (
        f"// schedule for {plan.network_name} [{plan.strategy}] "
        f"on {platform_label(plan.platform_name)}"
    )
    lines = [header]
    lines.extend(step.render() for step in generate_schedule(network, plan))
    return "\n".join(lines)
